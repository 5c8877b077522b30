import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wardcart.arena import (RASTER_BUDGET, Action, MapError, MapParseError, MapValidationError,
                            _project, load_map, nearest_centerline_distance, pause_distance,
                            project_offsets, raster_box, reverse_route, route_to,
                            serialize_map)

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
    with pytest.raises(MapParseError, match="more than one width record") as exc:
        load_map("node p 0 0\nwidth 0.3\npharmacy p\nwidth 0.1\n")
    assert exc.value.lineno == 4
    with pytest.raises(MapParseError, match="more than one pharmacy record") as exc:
        load_map("node p 0 0\nnode q 1 0\npharmacy p\nedge e p q\npharmacy q\n")
    assert exc.value.lineno == 5


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x", "y", "width"])
def test_non_finite_numbers_rejected(field, value):
    x, y, width = (value if field == name else default
                   for name, default in (("x", "0"), ("y", "0"), ("width", "0.30")))
    with pytest.raises(MapParseError, match=f"{field} must be finite") as exc:
        load_map(f"node p {x} {y}\npharmacy p\nwidth {width}\n")
    assert exc.value.lineno == (3 if field == "width" else 1)


@pytest.mark.parametrize("x, y", [("1e308", "0"), ("0", "-1e308"), ("50.001", "0"),
                                  ("0", "-50.5")])
def test_node_outside_arena_bounds_rejected(x, y):
    with pytest.raises(MapValidationError, match="node 'a' outside plausible arena bounds"):
        load_map(f"node p 0 0\nnode a {x} {y}\nedge e p a\nward 1 a\npharmacy p\n")
    # a node on the bound passes it; only the raster budget refuses this map
    with pytest.raises(MapValidationError, match="exceeds the budget"):
        load_map("node p 0 0\nnode a 50 -50\nedge e p a\nward 1 a\npharmacy p\n")
    load_map("node p 50 -50\npharmacy p\n")


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
    assert sorted(e.digit for e in m.placards) == [3, 7, 8]
    assert load_map(serialize_map(m)) == m


def test_duplicate_placard_digit_rejected():
    with pytest.raises(MapValidationError, match="duplicate placard digit"):
        load_map(TINY_MAP.replace("ward 3 w", "ward 3 w 3"))


# --------------------------------------------------------------- routing

# the default map's wards by distance from the pharmacy
DEFAULT_MAP_TIER = {1: "near", 2: "near", 3: "mid", 4: "mid",
                    5: "far", 6: "far", 7: "far", 8: "far"}


def test_route_lengths_follow_tiers(track):
    l1, l3, l5 = (sum(s.length for s in route_to(track, w)) for w in (1, 3, 5))
    assert l1 < l3 < l5


def test_route_length_monotone_in_tier_order(track):
    order = [1, 2, 3, 4, 5, 6, 7, 8]
    lengths = [sum(s.length for s in route_to(track, w)) for w in order]
    tiers = [DEFAULT_MAP_TIER[w] for w in order]
    for i in range(len(order) - 1):
        if tiers[i] != tiers[i + 1]:
            assert lengths[i] <= lengths[i + 1]
    near = max(lengths[0:2])
    mid = max(lengths[2:4])
    assert near <= min(lengths[2:4]) and mid <= min(lengths[4:8])


def test_route_to_ward_two_turns_right(track):
    route = route_to(track, 2)
    assert [s.action for s in route if s.action is not Action.STOP] == [Action.RIGHT]
    assert route[-1].action is Action.STOP


def test_route_to_ward_one_turns_left(track):
    route = route_to(track, 1)
    assert [s.action for s in route if s.action is not Action.STOP] == [Action.LEFT]


def test_route_matches_bfs_oracle_for_every_ward(track):
    for wid in range(1, 9):
        route = route_to(track, wid)
        nodes, actions = bfs_route_oracle(track, wid)
        got = [s.action for s in route if s.action is not Action.STOP]
        assert got == actions, f"ward {wid}"
        assert route[-1].end_node == nodes[-1]


def test_zero_length_route_is_just_stop():
    m = load_map("node p 0 0\nnode a 0 1\nedge e p a\nward 5 p\npharmacy p\n")
    route = route_to(m, 5)
    assert [s.action for s in route] == [Action.STOP]
    assert sum(s.length for s in route) == 0.0
    assert reverse_route(m, route) == route


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
        route = route_to(track, wid)
        back = reverse_route(track, route)
        fwd_actions = [s.action for s in route if s.action is not Action.STOP]
        back_actions = [s.action for s in back if s.action is not Action.STOP]
        assert back_actions == [swap[a] for a in reversed(fwd_actions)]
        assert back[-1].action is Action.STOP
        assert back[-1].end_node == track.pharmacy
        assert math.isclose(sum(s.length for s in back), sum(s.length for s in route))


def test_reversed_graph_route_matches_reversed_plan(track):
    # swap the roles of pharmacy and ward 4's node in the map text, route
    # from there, and compare against the reversed forward plan
    from wardcart.arena import DEFAULT_MAP_TEXT
    text = DEFAULT_MAP_TEXT.replace("pharmacy pharmacy", "pharmacy w4")
    text = text.replace("ward 4 w4", "ward 4 pharmacy")
    flipped = load_map(text)
    back_route = route_to(flipped, 4)
    want = reverse_route(track, route_to(track, 4))
    assert [s.action for s in back_route] == [s.action for s in want]
    assert [s.edge_id for s in back_route] == [s.edge_id for s in want]


# ---------------------------------------------------------- pause points

def test_follower_pause_point_is_last_before_ward_junction(track):
    # halfway along the spine edge that ends at the ward's junction
    assert math.isclose(pause_distance(track, 4), 1.5)
    assert math.isclose(pause_distance(track, 1), 0.5)
    with pytest.raises(ValueError, match="no edge before its junction"):
        pause_distance(load_map(TINY_MAP.replace("edge e2 a w", "edge e2 p w")), 3)


# ----------------------------------------------------------- placards

def _junction_of(track, node):
    """The default map's junction a ward node's stub hangs off."""
    (edge,) = [e for e in track.edges if node in (e.a, e.b)]
    return edge.a if edge.b == node else edge.b


def test_placard_groups_have_one_to_four_entries(track):
    junctions = [track.node_pos(_junction_of(track, w.node)) for w in track.wards]
    per_junction = dict.fromkeys(junctions, 0)
    for e in track.placards:
        per_junction[min(junctions, key=lambda j: math.dist(j, (e.x, e.y)))] += 1
    assert sorted(per_junction.values()) == [2, 2, 2, 2]
    assert sorted(e.digit for e in track.placards) == list(range(1, 9))
    with pytest.raises(MapValidationError, match="has 5 entries"):
        load_map(TINY_MAP.replace("ward 3 w", "ward 3 w 1 2 4 5"))


def test_ward_placard_contains_its_digit_near_its_junction(track):
    for w in track.wards:
        jx, jy = track.node_pos(_junction_of(track, w.node))
        (e,) = [e for e in track.placards if e.digit == w.id]
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
    # the array form gives the offset from the same foot point
    (ax, ay), (bx, by), (px, py) = a, b, p
    foot = (px - (ax + t * (bx - ax)), py - (ay + t * (by - ay)))
    dx, dy = project_offsets(ax, ay, bx, by, np.array([px]), np.array([py]))
    assert (float(dx[0]), float(dy[0])) == foot
    assert math.hypot(*foot) == d


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


# ---------------------------------------------------------- raster budget

def test_map_over_the_raster_budget_is_refused_at_load(track):
    # loaded only, never rendered: its raster would be 50,600 x 50,600 cells
    far = "node a -50 -50\nnode b 50 50\nedge e a b\npharmacy a\n"
    with pytest.raises(MapValidationError, match="50600 x 50600 cells exceeds the budget"):
        load_map(far)
    assert raster_box(pos for _, pos in track.nodes)[2:] == (1100, 2600)
    # by arithmetic: 8,190 cells a side fit in 2**26, and 8,195 do not
    square = "node a 0 0\nnode b {s} {s}\nedge e a b\nward 1 b\npharmacy a\n"
    fits = load_map(square.format(s=15.18))
    assert raster_box(pos for _, pos in fits.nodes)[2:] == (8190, 8190)
    with pytest.raises(MapValidationError, match="8195 x 8195 cells"):
        load_map(square.format(s=15.19))


# ------------------------------------------------------ generated map text

# odd spellings that float() or int() may take or refuse: non-finite and
# huge or tiny magnitudes, hex, underscores, a Unicode digit, nothing
ODD_NUMBERS = ["nan", "inf", "-inf", "1e400", "1e-320", "0x10", "1_0", "\u0663", "",
               "-0", "+.5", "08", "50.5", "15.3", "-15.3"]
NODE_IDS = ["p", "a", "b", "c", "d"]
plain_number = st.one_of(st.sampled_from(["0", "0.5", "1", "-1", "2.25"]),
                         st.floats(-3.0, 3.0).map(repr))
number_text = st.one_of(plain_number, st.sampled_from(ODD_NUMBERS))
plain_digit = st.integers(1, 8).map(str)
digit_text = st.one_of(plain_digit, st.integers(-1, 10).map(str), st.sampled_from(ODD_NUMBERS))
node_id = st.sampled_from(NODE_IDS)
map_record = st.one_of(
    st.tuples(node_id, number_text, number_text).map(lambda r: "node %s %s %s" % r),
    st.tuples(st.sampled_from(["e1", "e2", "e3", "e4"]), node_id, node_id)
    .map(lambda r: "edge %s %s %s" % r),
    st.tuples(digit_text, node_id, st.lists(digit_text, max_size=3).map(" ".join))
    .map(lambda r: "ward %s %s %s" % r),
    node_id.map("pharmacy {}".format),
    number_text.map("width {}".format),
    st.one_of(st.sampled_from(["bogus 1", "node", "edge e1 p", "# note", "   ", "ward"]),
              st.text(max_size=8)))


@st.composite
def map_texts(draw):
    """A well-formed tree over some of the node ids, with wards on some of
    them, and generated records put in anywhere; LF or CRLF line ends."""
    n = draw(st.integers(1, len(NODE_IDS)))
    records = [f"node {nid} {draw(plain_number)} {draw(plain_number)}" for nid in NODE_IDS[:n]]
    records += [f"edge e{i} {NODE_IDS[draw(st.integers(0, i - 1))]} {NODE_IDS[i]}"
                for i in range(1, n)]
    for nid in NODE_IDS[1:n]:
        if draw(st.booleans()):
            extras = draw(st.lists(plain_digit, max_size=2))
            records.append(" ".join(["ward", draw(plain_digit), nid, *extras]))
    records.append("pharmacy p")
    if draw(st.integers(0, 7)) == 0:  # a far node, for the raster budget to decide
        far = draw(st.sampled_from(["15.1 15.1", "15.3 -15.3", "-50 50", "0 50"]))
        records += [f"node f {far}", "edge ef p f"]
    for _ in range(draw(st.integers(0, 4))):
        records.insert(draw(st.integers(0, len(records))), draw(map_record))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(records) + draw(st.sampled_from(["", end]))


@settings(max_examples=600, deadline=None)
@given(text=map_texts())
@example(text="node p 0 0\r\nnode a \u0663 1_0\r\nedge e p a\r\nward \u0663 a 08\r\n"
              "pharmacy p\r\nwidth +.5\r\n")
def test_any_map_text_loads_or_raises_a_map_error(text):
    try:
        track = load_map(text)
    except MapError:
        return
    assert load_map(serialize_map(track)) == track
    _, _, nx, ny = raster_box(pos for _, pos in track.nodes)
    assert nx * ny <= RASTER_BUDGET
