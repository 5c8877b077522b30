"""Hospital-corridor world model: guide-line graph, wards, placards, routing.

The map is a small planar graph. Nodes carry positions in meters, edges are
straight guide-line segments, wards 1..8 sit on stub nodes hanging off cross
junctions, and the pharmacy node is the start/return point. Placard groups
(the painted digits a cart reads at a junction) are derived from the graph
geometry when a map is loaded, so map files stay short and human-editable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterator

Vec2 = tuple[float, float]

# Placard layout constants (meters). Digits sit this far before their
# junction along the approach edge, offset to the side of the guide line.
PLACARD_SETBACK = 0.22
PLACARD_LATERAL = 0.12
PLACARD_STAGGER = 0.14
GLYPH_HEIGHT = 0.12


class MapError(ValueError):
    """Base class for map file problems."""


class MapParseError(MapError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class MapValidationError(MapError):
    """A structurally valid file that violates a map invariant."""


class Tier(Enum):
    NEAR = "near"
    MID = "mid"
    FAR = "far"


class Action(Enum):
    STRAIGHT = "straight"
    LEFT = "left"
    RIGHT = "right"
    STOP = "stop"


_TIER_OF_WARD = {1: Tier.NEAR, 2: Tier.NEAR, 3: Tier.MID, 4: Tier.MID,
                 5: Tier.FAR, 6: Tier.FAR, 7: Tier.FAR, 8: Tier.FAR}


def classify_ward(ward_id: int) -> Tier:
    """Tier of a ward id: {1,2} near, {3,4} mid, {5..8} far."""
    try:
        return _TIER_OF_WARD[ward_id]
    except KeyError:
        raise ValueError(f"ward id {ward_id} out of range 1..8") from None


@dataclass(frozen=True)
class PlacardEntry:
    digit: int
    x: float
    y: float
    up_angle: float  # world angle of the glyph's "up" direction, radians
    height: float = GLYPH_HEIGHT


@dataclass(frozen=True)
class PlacardGroup:
    junction: str
    entries: tuple[PlacardEntry, ...]


@dataclass(frozen=True)
class Ward:
    id: int
    node: str
    tier: Tier
    placard: PlacardGroup


@dataclass(frozen=True)
class Edge:
    id: str
    a: str
    b: str
    polyline: tuple[Vec2, ...]

    @property
    def length(self) -> float:
        total = 0.0
        for (x0, y0), (x1, y1) in zip(self.polyline, self.polyline[1:]):
            total += math.hypot(x1 - x0, y1 - y0)
        return total


@dataclass(frozen=True)
class RouteStep:
    edge_id: str | None  # None only for the degenerate zero-length route
    action: Action
    end_node: str
    length: float


@dataclass(frozen=True)
class RoutePlan:
    ward: int
    steps: tuple[RouteStep, ...]

    @property
    def total_length(self) -> float:
        return sum(s.length for s in self.steps)

    def junction_actions(self) -> list[Action]:
        """Actions excluding the final Stop (the turn decisions)."""
        return [s.action for s in self.steps if s.action is not Action.STOP]

    def reversed(self, track: "TrackMap") -> "RoutePlan":
        """Return route: edges reversed, Left and Right swapped, ends in Stop."""
        fwd = [s for s in self.steps if s.edge_id is not None]
        if not fwd:
            return RoutePlan(self.ward, (RouteStep(None, Action.STOP, self.steps[0].end_node, 0.0),))
        swap = {Action.LEFT: Action.RIGHT, Action.RIGHT: Action.LEFT,
                Action.STRAIGHT: Action.STRAIGHT}
        steps: list[RouteStep] = []
        n = len(fwd)
        for i, step in enumerate(reversed(fwd)):
            edge = track.edge(step.edge_id)
            start = edge.a if edge.b == step.end_node else edge.b
            if i < n - 1:
                action = swap[fwd[n - 2 - i].action]
            else:
                action = Action.STOP
            steps.append(RouteStep(step.edge_id, action, start, step.length))
        return RoutePlan(self.ward, tuple(steps))


@dataclass(frozen=True, eq=True)
class TrackMap:
    nodes: tuple[tuple[str, Vec2], ...]
    edges: tuple[Edge, ...]
    wards: tuple[Ward, ...]
    pharmacy: str
    corridor_width: float
    extra_digits: tuple[tuple[int, int], ...] = ()  # (host ward, shown digit)

    def __hash__(self) -> int:
        # computed once: the renderer looks its raster up by map every frame
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so a pickle leaves it out
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def node_pos(self, node_id: str) -> Vec2:
        for nid, pos in self.nodes:
            if nid == node_id:
                return pos
        raise KeyError(node_id)

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def ward(self, ward_id: int) -> Ward:
        for w in self.wards:
            if w.id == ward_id:
                return w
        raise KeyError(ward_id)

    def adjacency(self) -> dict[str, list[tuple[str, str]]]:
        adj: dict[str, list[tuple[str, str]]] = {nid: [] for nid, _ in self.nodes}
        for e in self.edges:
            adj[e.a].append((e.b, e.id))
            adj[e.b].append((e.a, e.id))
        for lst in adj.values():
            lst.sort()
        return adj

    def placard_groups(self) -> list[PlacardGroup]:
        """One group per junction; wards that share a junction share it."""
        return list({w.placard.junction: w.placard for w in self.wards}.values())


# --------------------------------------------------------------------------
# map text format

def iter_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (lineno, tokens) for each non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise MapParseError(lineno, f"bad {what}: {tok!r}") from None


def load_map(text: str) -> TrackMap:
    """Parse map text into a validated TrackMap.

    Grammar (one record per line, ``#`` starts a comment):
        node <id> <x> <y>
        edge <id> <node-a> <node-b>
        ward <digit> <node> [<digit2> ...]
        pharmacy <node>
        width <meters>
    """
    nodes: dict[str, Vec2] = {}
    edges: list[Edge] = []
    ward_records: list[tuple[int, int, str, list[int]]] = []  # lineno, digit, node, extras
    pharmacy: str | None = None
    width = 0.30
    saw_any = False

    for lineno, toks in iter_records(text):
        saw_any = True
        kind, args = toks[0], toks[1:]
        if kind == "node":
            if len(args) != 3:
                raise MapParseError(lineno, "node wants: node <id> <x> <y>")
            nid = args[0]
            if nid in nodes:
                raise MapParseError(lineno, f"duplicate node id {nid!r}")
            nodes[nid] = (_parse_float(args[1], lineno, "x"),
                          _parse_float(args[2], lineno, "y"))
        elif kind == "edge":
            if len(args) != 3:
                raise MapParseError(lineno, "edge wants: edge <id> <node-a> <node-b>")
            eid, a, b = args
            if any(e.id == eid for e in edges):
                raise MapParseError(lineno, f"duplicate edge id {eid!r}")
            for n in (a, b):
                if n not in nodes:
                    raise MapParseError(lineno, f"edge {eid!r} references unknown node {n!r}")
            edges.append(Edge(eid, a, b, (nodes[a], nodes[b])))
        elif kind == "ward":
            if len(args) < 2:
                raise MapParseError(lineno, "ward wants: ward <digit> <node> [<digit2> ...]")
            try:
                digit = int(args[0])
                extras = [int(t) for t in args[2:]]
            except ValueError:
                raise MapParseError(lineno, "ward digits must be integers") from None
            if args[1] not in nodes:
                raise MapParseError(lineno, f"ward references unknown node {args[1]!r}")
            ward_records.append((lineno, digit, args[1], extras))
        elif kind == "pharmacy":
            if len(args) != 1:
                raise MapParseError(lineno, "pharmacy wants: pharmacy <node>")
            if pharmacy is not None:
                raise MapValidationError("more than one pharmacy node")
            if args[0] not in nodes:
                raise MapParseError(lineno, f"pharmacy references unknown node {args[0]!r}")
            pharmacy = args[0]
        elif kind == "width":
            if len(args) != 1:
                raise MapParseError(lineno, "width wants: width <meters>")
            width = _parse_float(args[0], lineno, "width")
        else:
            raise MapParseError(lineno, f"unknown record {kind!r}")

    if not saw_any:
        raise MapParseError(1, "empty map text")
    if pharmacy is None:
        raise MapValidationError("no pharmacy node declared")
    if width <= 0:
        raise MapValidationError("corridor width must be positive")

    seen_digits: set[int] = set()
    for lineno, digit, _, extras in ward_records:
        if not 1 <= digit <= 8:
            raise MapValidationError(f"ward id {digit} out of range 1..8")
        if digit in seen_digits:
            raise MapValidationError(f"duplicate ward {digit}")
        seen_digits.add(digit)
        for x in extras:
            if not 1 <= x <= 8:
                raise MapValidationError(f"placard digit {x} out of range 1..8")

    # connectivity from the pharmacy
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for e in edges:
        adj[e.a].append(e.b)
        adj[e.b].append(e.a)
    reached = {pharmacy}
    frontier = [pharmacy]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    if reached != set(nodes):
        missing = sorted(set(nodes) - reached)
        raise MapValidationError(f"graph not connected: unreachable nodes {missing}")

    skeleton = TrackMap(
        nodes=tuple(nodes.items()),
        edges=tuple(edges),
        wards=(),
        pharmacy=pharmacy,
        corridor_width=width,
        extra_digits=tuple(sorted(
            (digit, x) for _, digit, _, extras in ward_records for x in extras
        )),
    )
    track = replace(skeleton, wards=_build_wards(skeleton, ward_records))
    for w in track.wards:
        for entry in w.placard.entries:
            if abs(entry.x) > 50 or abs(entry.y) > 50:
                raise MapValidationError("placard pose outside plausible arena bounds")
    return track


def _unit(dx: float, dy: float) -> Vec2:
    n = math.hypot(dx, dy)
    if n == 0:
        return (0.0, 0.0)
    return (dx / n, dy / n)


def _bfs_parents(track: TrackMap, root: str) -> dict[str, tuple[str, str]]:
    """node -> (parent node, connecting edge id), BFS tree from root."""
    adj = track.adjacency()
    parents: dict[str, tuple[str, str]] = {}
    visited = {root}
    queue = [root]
    while queue:
        cur = queue.pop(0)
        for nxt, eid in adj[cur]:
            if nxt not in visited:
                visited.add(nxt)
                parents[nxt] = (cur, eid)
                queue.append(nxt)
    return parents


def _build_wards(skeleton: TrackMap,
                 ward_records: list[tuple[int, int, str, list[int]]]) -> tuple[Ward, ...]:
    parents = _bfs_parents(skeleton, skeleton.pharmacy)

    # group wards by their decision junction (BFS parent of the ward node)
    groups: dict[str, list[tuple[int, str]]] = {}
    extras_by_junction: dict[str, list[int]] = {}
    for _, digit, node, extras in ward_records:
        junction = parents[node][0] if node in parents else node
        groups.setdefault(junction, []).append((digit, node))
        if extras:
            extras_by_junction.setdefault(junction, []).extend(extras)

    built: dict[str, PlacardGroup] = {}
    for junction, members in groups.items():
        jx, jy = skeleton.node_pos(junction)
        if junction in parents:
            px, py = skeleton.node_pos(parents[junction][0])
            approach = _unit(jx - px, jy - py)
        else:
            approach = (0.0, 1.0)  # junction is the pharmacy itself
        left_n = (-approach[1], approach[0])
        up_angle = math.atan2(approach[1], approach[0])

        entries: list[PlacardEntry] = []
        digits_here: set[int] = set()

        def place(digit: int, side: float, rank: int) -> None:
            setback = PLACARD_SETBACK + PLACARD_STAGGER * rank
            ex = jx - approach[0] * setback + left_n[0] * side * PLACARD_LATERAL
            ey = jy - approach[1] * setback + left_n[1] * side * PLACARD_LATERAL
            entries.append(PlacardEntry(digit, ex, ey, up_angle))

        side_rank = {1.0: 0, -1.0: 0}
        for digit, node in sorted(members):
            wx, wy = skeleton.node_pos(node)
            stub = _unit(wx - jx, wy - jy)
            cross = approach[0] * stub[1] - approach[1] * stub[0]
            side = 1.0 if cross >= 0 else -1.0
            place(digit, side, side_rank[side])
            side_rank[side] += 1
            digits_here.add(digit)
        for i, digit in enumerate(sorted(extras_by_junction.get(junction, []))):
            if digit in digits_here:
                raise MapValidationError(f"duplicate placard digit {digit} at junction {junction!r}")
            digits_here.add(digit)
            side = 1.0 if i % 2 == 0 else -1.0
            place(digit, side, side_rank[side])
            side_rank[side] += 1
        if not 1 <= len(entries) <= 4:
            raise MapValidationError(
                f"placard group at {junction!r} has {len(entries)} entries, want 1..4")
        built[junction] = PlacardGroup(junction, tuple(entries))

    wards: list[Ward] = []
    for _, digit, node, _ in ward_records:
        junction = parents[node][0] if node in parents else node
        wards.append(Ward(digit, node, classify_ward(digit), built[junction]))
    return tuple(sorted(wards, key=lambda w: w.id))


def serialize_map(track: TrackMap) -> str:
    """Emit map text that load_map parses back into an equal TrackMap."""
    lines = []
    for nid, (x, y) in track.nodes:
        lines.append(f"node {nid} {x!r} {y!r}")
    for e in track.edges:
        lines.append(f"edge {e.id} {e.a} {e.b}")
    extras_of: dict[int, list[int]] = {}
    for host, digit in track.extra_digits:
        extras_of.setdefault(host, []).append(digit)
    for w in track.wards:
        extra = extras_of.get(w.id, [])
        suffix = (" " + " ".join(str(d) for d in extra)) if extra else ""
        lines.append(f"ward {w.id} {w.node}{suffix}")
    lines.append(f"pharmacy {track.pharmacy}")
    lines.append(f"width {track.corridor_width!r}")
    return "\n".join(lines) + "\n"


DEFAULT_MAP_TEXT = """\
# competition-style corridor: spine north from the pharmacy, cross junctions
# at 1 m spacing, 0.5 m ward stubs, 30 cm corridor
node pharmacy 0.0 0.0
node j1 0.0 1.0
node j2 0.0 2.0
node j3 0.0 3.0
node j4 0.0 4.0
node w1 -0.5 1.0
node w2 0.5 1.0
node w3 -0.5 2.0
node w4 0.5 2.0
node w5 -0.5 3.0
node w6 0.5 3.0
node w7 -0.5 4.0
node w8 0.5 4.0
edge spine1 pharmacy j1
edge spine2 j1 j2
edge spine3 j2 j3
edge spine4 j3 j4
edge stub1 j1 w1
edge stub2 j1 w2
edge stub3 j2 w3
edge stub4 j2 w4
edge stub5 j3 w5
edge stub6 j3 w6
edge stub7 j4 w7
edge stub8 j4 w8
ward 1 w1
ward 2 w2
ward 3 w3
ward 4 w4
ward 5 w5
ward 6 w6
ward 7 w7
ward 8 w8
pharmacy pharmacy
width 0.30
"""


def default_map() -> TrackMap:
    """The built-in map: near fork {1,2}, mid fork {3,4}, far section {5..8}."""
    return load_map(DEFAULT_MAP_TEXT)


def route_to(track: TrackMap, ward_id: int) -> RoutePlan:
    """Shortest route (fewest edges) from the pharmacy to a ward.

    Each step carries the action taken at the node the edge ends on:
    Straight/Left/Right at junctions, Stop on arrival at the ward node.
    """
    if not 1 <= ward_id <= 8:
        raise ValueError(f"ward id {ward_id} out of range 1..8")
    try:
        ward = track.ward(ward_id)
    except KeyError:
        raise ValueError(f"ward {ward_id} not present in map") from None

    if ward.node == track.pharmacy:
        return RoutePlan(ward_id, (RouteStep(None, Action.STOP, ward.node, 0.0),))

    parents = _bfs_parents(track, track.pharmacy)
    if ward.node not in parents:
        raise ValueError(f"ward {ward_id} unreachable from pharmacy")

    path_nodes = [ward.node]
    path_edges: list[str] = []
    cur = ward.node
    while cur != track.pharmacy:
        parent, eid = parents[cur]
        path_edges.append(eid)
        path_nodes.append(parent)
        cur = parent
    path_nodes.reverse()
    path_edges.reverse()

    steps: list[RouteStep] = []
    for i, eid in enumerate(path_edges):
        edge = track.edge(eid)
        end = path_nodes[i + 1]
        if i == len(path_edges) - 1:
            action = Action.STOP
        else:
            ax, ay = track.node_pos(path_nodes[i])
            bx, by = track.node_pos(path_nodes[i + 1])
            cx, cy = track.node_pos(path_nodes[i + 2])
            din = _unit(bx - ax, by - ay)
            dout = _unit(cx - bx, cy - by)
            cross = din[0] * dout[1] - din[1] * dout[0]
            dot = din[0] * dout[0] + din[1] * dout[1]
            if abs(cross) < 1e-9 and dot > 0:
                action = Action.STRAIGHT
            elif cross > 0:
                action = Action.LEFT
            else:
                action = Action.RIGHT
        steps.append(RouteStep(eid, action, end, edge.length))
    return RoutePlan(ward_id, tuple(steps))


def resolve_pause_point(track: TrackMap, ward_id: int) -> tuple[Vec2, float]:
    """Follower pause point: last edge midpoint before the ward's junction.

    Returns (world position, distance along the outbound route).
    """
    plan = route_to(track, ward_id)
    edges = [s for s in plan.steps if s.edge_id is not None]
    if len(edges) < 2:
        raise ValueError(f"route to ward {ward_id} has no edge before its junction")
    before = edges[:-1]
    dist = sum(s.length for s in before[:-1]) + before[-1].length / 2.0
    mid_edge = track.edge(before[-1].edge_id)
    (x0, y0), (x1, y1) = mid_edge.polyline[0], mid_edge.polyline[-1]
    return ((x0 + x1) / 2.0, (y0 + y1) / 2.0), dist


def _project(a: Vec2, b: Vec2, p: Vec2) -> tuple[float, float]:
    """Closest point of segment ab to p: (its fraction t along ab, distance)."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0:
        return 0.0, math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / L2))
    return t, math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def nearest_centerline_distance(track: TrackMap, point: Vec2) -> float:
    """Distance from a point to the nearest guide-line centerline."""
    best = math.inf
    for e in track.edges:
        for a, b in zip(e.polyline, e.polyline[1:]):
            _, d = _project(a, b, point)
            if d < best:
                best = d
    return best


def route_progress(track: TrackMap, plan: RoutePlan, point: Vec2) -> float:
    """Arc distance along a route plan of the closest route point to ``point``."""
    best_d = math.inf
    best_s = 0.0
    cum = 0.0
    for step in plan.steps:
        if step.edge_id is None:
            continue
        edge = track.edge(step.edge_id)
        start = edge.a if edge.b == step.end_node else edge.b
        t, d = _project(track.node_pos(start), track.node_pos(step.end_node), point)
        if d < best_d:
            best_d = d
            best_s = cum + t * step.length
        cum += step.length
    return best_s
