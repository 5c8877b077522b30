import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wardcart.arena import (Action, MapParseError, MapValidationError, Tier, _project,
                            classify_ward, load_map,
                            nearest_centerline_distance, resolve_pause_point,
                            route_to, serialize_map)

TINY_MAP = """
node p 0 0
node a 0 1
node w 1 1
edge e1 p a
edge e2 a w
ward 3 w
pharmacy p
width 0.30
"""


# ---------------------------------------------------------------- oracles

def bfs_route_oracle(track, ward_id):
    """Independent shortest path: plain BFS over the edge list, with turn
    directions recomputed from node geometry via cross products."""
    ward = track.ward(ward_id)
    adj = {}
    for e in track.edges:
        adj.setdefault(e.a, []).append((e.b, e.id))
        adj.setdefault(e.b, []).append((e.a, e.id))
    for lst in adj.values():
        lst.sort()
    parent = {track.pharmacy: None}
    frontier = [track.pharmacy]
    while frontier:
        nxt = []
        for node in frontier:
            for nb, eid in adj.get(node, []):
                if nb not in parent:
                    parent[nb] = (node, eid)
                    nxt.append(nb)
        frontier = nxt
    nodes = [ward.node]
    while parent[nodes[-1]] is not None:
        nodes.append(parent[nodes[-1]][0])
    nodes.reverse()
    actions = []
    for i in range(1, len(nodes) - 1):
        ax, ay = track.node_pos(nodes[i - 1])
        bx, by = track.node_pos(nodes[i])
        cx, cy = track.node_pos(nodes[i + 1])
        din = (bx - ax, by - ay)
        dout = (cx - bx, cy - by)
        cross = din[0] * dout[1] - din[1] * dout[0]
        if abs(cross) < 1e-9:
            actions.append(Action.STRAIGHT)
        elif cross > 0:
            actions.append(Action.LEFT)
        else:
            actions.append(Action.RIGHT)
    return nodes, actions


# ---------------------------------------------------------------- parsing

def test_default_map_has_eight_wards_and_pharmacy_at_origin(track):
    assert sorted(w.id for w in track.wards) == list(range(1, 9))
    assert track.node_pos(track.pharmacy) == (0.0, 0.0)
    assert track.corridor_width == 0.30


def test_empty_text_is_a_parse_error():
    with pytest.raises(MapParseError):
        load_map("")
    with pytest.raises(MapParseError):
        load_map("# only a comment\n\n")


def test_duplicate_ward_rejected():
    text = TINY_MAP + "ward 3 a\n"
    with pytest.raises(MapValidationError, match="duplicate ward"):
        load_map(text)


def test_parse_errors_carry_line_numbers():
    try:
        load_map("node p 0 zero\n")
    except MapParseError as exc:
        assert exc.lineno == 1
    else:
        pytest.fail("expected MapParseError")


def test_unknown_record_and_bad_references():
    with pytest.raises(MapParseError, match="unknown record"):
        load_map("blob x\n")
    with pytest.raises(MapParseError, match="unknown node"):
        load_map("node p 0 0\nedge e p q\n")
    with pytest.raises(MapValidationError, match="pharmacy"):
        load_map("node p 0 0\n")


def test_disconnected_map_rejected():
    text = """
node p 0 0
node a 0 1
node lost 5 5
edge e1 p a
pharmacy p
"""
    with pytest.raises(MapValidationError, match="not connected"):
        load_map(text)


def test_ward_out_of_range_rejected():
    with pytest.raises(MapValidationError, match="out of range"):
        load_map("node p 0 0\nnode w 0 1\nedge e p w\nward 9 w\npharmacy p\n")


def test_serialize_round_trip(track):
    assert load_map(serialize_map(track)) == track


def test_round_trip_with_extra_placard_digits():
    text = TINY_MAP + ""
    m = load_map(text.replace("ward 3 w", "ward 3 w 7 8"))
    group = m.ward(3).placard
    assert sorted(e.digit for e in group.entries) == [3, 7, 8]
    assert load_map(serialize_map(m)) == m


def test_duplicate_placard_digit_rejected():
    with pytest.raises(MapValidationError, match="duplicate placard digit"):
        load_map(TINY_MAP.replace("ward 3 w", "ward 3 w 3"))


# ------------------------------------------------------------ ward tiers

def test_classify_ward_matches_tier_table():
    expected = {1: Tier.NEAR, 2: Tier.NEAR, 3: Tier.MID, 4: Tier.MID,
                5: Tier.FAR, 6: Tier.FAR, 7: Tier.FAR, 8: Tier.FAR}
    for wid, tier in expected.items():
        assert classify_ward(wid) is tier


def test_classify_ward_rejects_out_of_range():
    for bad in (0, 9, -1):
        with pytest.raises(ValueError):
            classify_ward(bad)


def test_map_ward_tiers_agree_with_classifier(track):
    for w in track.wards:
        assert w.tier is classify_ward(w.id)


# --------------------------------------------------------------- routing

def test_route_lengths_follow_tiers(track):
    l1 = route_to(track, 1).total_length
    l3 = route_to(track, 3).total_length
    l5 = route_to(track, 5).total_length
    assert l1 < l3 < l5


def test_route_length_monotone_in_tier_order(track):
    order = [1, 2, 3, 4, 5, 6, 7, 8]
    lengths = [route_to(track, w).total_length for w in order]
    tiers = [classify_ward(w) for w in order]
    for i in range(len(order) - 1):
        if tiers[i] != tiers[i + 1]:
            assert lengths[i] <= lengths[i + 1]
    near = max(lengths[0:2])
    mid = max(lengths[2:4])
    assert near <= min(lengths[2:4]) and mid <= min(lengths[4:8])


def test_route_to_ward_two_turns_right(track):
    plan = route_to(track, 2)
    assert plan.junction_actions() == [Action.RIGHT]
    assert plan.steps[-1].action is Action.STOP


def test_route_to_ward_one_turns_left(track):
    plan = route_to(track, 1)
    assert plan.junction_actions() == [Action.LEFT]


def test_route_matches_bfs_oracle_for_every_ward(track):
    for wid in range(1, 9):
        plan = route_to(track, wid)
        nodes, actions = bfs_route_oracle(track, wid)
        got = [s.action for s in plan.steps if s.action is not Action.STOP]
        assert got == actions, f"ward {wid}"
        assert plan.steps[-1].end_node == nodes[-1]


def test_zero_length_route_is_just_stop():
    m = load_map("node p 0 0\nnode a 0 1\nedge e p a\nward 5 p\npharmacy p\n")
    plan = route_to(m, 5)
    assert [s.action for s in plan.steps] == [Action.STOP]
    assert plan.total_length == 0.0


def test_missing_ward_is_an_error(track):
    m = load_map(TINY_MAP)
    with pytest.raises(ValueError, match="not present"):
        route_to(m, 5)
    with pytest.raises(ValueError, match="out of range"):
        route_to(track, 9)


def test_reversed_plan_swaps_left_right(track):
    swap = {Action.LEFT: Action.RIGHT, Action.RIGHT: Action.LEFT,
            Action.STRAIGHT: Action.STRAIGHT}
    for wid in range(1, 9):
        plan = route_to(track, wid)
        back = plan.reversed(track)
        fwd_actions = [s.action for s in plan.steps if s.action is not Action.STOP]
        back_actions = [s.action for s in back.steps if s.action is not Action.STOP]
        assert back_actions == [swap[a] for a in reversed(fwd_actions)]
        assert back.steps[-1].action is Action.STOP
        assert back.steps[-1].end_node == track.pharmacy
        assert math.isclose(back.total_length, plan.total_length)


def test_reversed_graph_route_matches_reversed_plan(track):
    # swap the roles of pharmacy and ward 4's node in the map text, route
    # from there, and compare against the reversed forward plan
    from wardcart.arena import DEFAULT_MAP_TEXT
    text = DEFAULT_MAP_TEXT.replace("pharmacy pharmacy", "pharmacy w4")
    text = text.replace("ward 4 w4", "ward 4 pharmacy")
    flipped = load_map(text)
    back_plan = route_to(flipped, 4)
    want = route_to(track, 4).reversed(track)
    assert [s.action for s in back_plan.steps] == [s.action for s in want.steps]
    assert [s.edge_id for s in back_plan.steps] == [s.edge_id for s in want.steps]


# ---------------------------------------------------------- pause points

def test_follower_pause_point_is_last_before_ward_junction(track):
    pos, dist = resolve_pause_point(track, 4)
    assert pos == (0.0, 1.5)
    assert math.isclose(dist, 1.5)
    pos1, dist1 = resolve_pause_point(track, 1)
    assert pos1 == (0.0, 0.5)
    assert math.isclose(dist1, 0.5)


# ----------------------------------------------------------- placards

def test_placard_groups_have_one_to_four_entries(track):
    for group in track.placard_groups():
        assert 1 <= len(group.entries) <= 4


def test_ward_placard_contains_its_digit_near_its_junction(track):
    for w in track.wards:
        digits = [e.digit for e in w.placard.entries]
        assert w.id in digits
        jx, jy = track.node_pos(w.placard.junction)
        for e in w.placard.entries:
            assert math.hypot(e.x - jx, e.y - jy) < 0.6


def test_nearest_centerline_distance(track):
    assert nearest_centerline_distance(track, (0.0, 0.5)) == pytest.approx(0.0)
    assert nearest_centerline_distance(track, (0.03, 0.5)) == pytest.approx(0.03)
    assert nearest_centerline_distance(track, (-0.2, 1.0)) == pytest.approx(0.0)


coords = st.floats(-3.0, 3.0)
points = st.tuples(coords, coords)


@settings(max_examples=200, deadline=None)
@given(a=points, b=st.one_of(points, st.just(None)), p=points)
def test_project_is_the_nearest_point_of_the_segment(a, b, p):
    b = a if b is None else b  # None draws a zero-length segment
    t, d = _project(a, b, p)
    assert 0.0 <= t <= 1.0
    assert d <= math.dist(a, p) + 1e-12 and d <= math.dist(b, p) + 1e-12
    # against the nearest of 1,001 evenly spaced points of the segment
    n = 1000
    brute = min(math.dist((a[0] + (b[0] - a[0]) * k / n, a[1] + (b[1] - a[1]) * k / n), p)
                for k in range(n + 1))
    assert d <= brute + 1e-12
    assert brute - d <= math.dist(a, b) / n + 1e-12


def test_equal_maps_hash_equal(track):
    rebuilt = load_map(serialize_map(track))
    assert rebuilt is not track and rebuilt == track
    assert hash(rebuilt) == hash(track)


def test_unpickled_map_hashes_like_a_fresh_one(tmp_path, track):
    # str hashes differ between processes: a pickled map must not carry
    # its cached hash into another interpreter
    hash(track)
    path = tmp_path / "map.pickle"
    path.write_bytes(pickle.dumps(track))
    code = ("import pickle, sys; from wardcart.arena import default_map; "
            "m = pickle.loads(open(sys.argv[1], 'rb').read()); "
            "assert {m: 1}.get(default_map()) == 1")
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env, timeout=60)
    assert done.returncode == 0
