"""Kauffman bracket evaluation on planar diagrams, plus diagram builders.

Diagrams are PD-coded: each crossing is a 4-tuple of arc labels listed
counterclockwise starting from the inbound under-strand, so the under-strand
occupies slots 0 and 2.  Crossing-free unknot components are carried in a
separate counter since they never touch an arc label.

The evaluator is a frontier state sum: crossings are resolved one at a time
and partial resolutions are merged whenever they induce the same planar
matching on the dangling arc ends.  Arc ends are ints (end k of the i-th arc
met is 2i + k, so an end's partner is end ^ 1); each step groups the
resolutions by the matching they leave, and a new state's value is one
coefficient-ring dot over the terms reaching it, each term a state value
times one of the six weights A^(+-1) delta^closed.  Loop closures contribute
delta = -A^2 - A^-2, and the empty diagram evaluates to 1.

Divisibility certificates color every component z + c for each coloring in
COLORINGS.  One pass over the 2^mu sublinks, grouped by how many components
were deleted, serves both colorings: the state sums are shared and the
coloring is applied afterwards, by Horner's rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .cyclotomic import CycContext, CycNum
from .laurent import IntLaurent, ONE, ONE_PLUS_A, ZERO, RefutationError


class LaurentCoeffs:
    """Coefficient adapter for generic evaluation over Z[A, A^-1]."""

    one = ONE
    delta = IntLaurent({2: -1, -2: -1})
    dot = staticmethod(IntLaurent.dot)

    @staticmethod
    def a_pow(k: int) -> IntLaurent:
        return IntLaurent.monomial(1, k)


class RootCoeffs:
    """Coefficient adapter for evaluation with A specialized to a root of unity."""

    def __init__(self, ctx: CycContext):
        self.ctx = ctx
        self.one = ctx.one
        self.delta = -(ctx.A_pow(2) + ctx.A_pow(-2))
        self.dot = ctx.dot

    def a_pow(self, k: int) -> CycNum:
        return self.ctx.A_pow(k)


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of x with path halving; an unseen x is its own root."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict[int, int], x: int, y: int) -> None:
    """Merge the classes of x and y; the root of x's class moves under y's."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[rx] = ry


@dataclass(frozen=True)
class LinkDiagram:
    """A PD-coded link diagram with an explicit count of crossing-free loops."""

    pd: tuple[tuple[int, int, int, int], ...]
    loops: int = 0

    def __post_init__(self):
        counts: dict[int, int] = {}
        for cr in self.pd:
            if len(cr) != 4:
                raise ValueError("PD crossings must be 4-tuples")
            for a in cr:
                counts[a] = counts.get(a, 0) + 1
        bad = [a for a, c in counts.items() if c != 2]
        if bad:
            raise ValueError(f"arcs must appear exactly twice, offenders: {sorted(bad)}")
        if self.loops < 0:
            raise ValueError("loop count must be nonnegative")

    @property
    def crossings(self) -> int:
        return len(self.pd)

    def components(self) -> list[tuple[int, ...]]:
        """Arc sets of the link components; crossing-free loops come last as ()."""
        parent: dict[int, int] = {}
        for a, b, c, d in self.pd:
            _union(parent, a, c)
            _union(parent, b, d)
        groups: dict[int, list[int]] = {}
        for a in parent:
            groups.setdefault(_find(parent, a), []).append(a)
        comps = sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])
        return comps + [()] * self.loops

    @property
    def mu(self) -> int:
        return len(self.components())

    @staticmethod
    def from_json(obj: dict) -> "LinkDiagram":
        return LinkDiagram(
            tuple(tuple(int(x) for x in cr) for cr in obj.get("pd", [])),
            int(obj.get("loops", 0)),
        )


def _crossing_order(pd: Sequence[tuple[int, int, int, int]]) -> list[int]:
    # Greedy ordering that keeps the dangling frontier small: always pick the
    # crossing with the most arc slots on arcs already met, lowest index on
    # ties.  score[i] counts those slots; it grows when an arc is first met.
    slots: dict[int, list[int]] = {}
    for i, cr in enumerate(pd):
        for a in cr:
            slots.setdefault(a, []).append(i)
    score = [0] * len(pd)
    remaining = list(range(len(pd)))
    seen: set[int] = set()
    order: list[int] = []
    while remaining:
        best = max(remaining, key=score.__getitem__)
        order.append(best)
        remaining.remove(best)
        for a in pd[best]:
            if a not in seen:
                seen.add(a)
                for i in slots[a]:
                    score[i] += 1
    return order


def _join(m: dict[int, int], u: int, v: int) -> int:
    """Connect dangling ends u and v in the matching m; 1 if a loop closed.

    m pairs the far ends of the partial strands.  An end not in m is on an
    arc met for the first time, so its strand runs to the arc's other end,
    u ^ 1."""
    pu = m.pop(u, None)
    if pu is None:
        pu = u ^ 1
    else:
        del m[pu]
    if pu == v:
        return 1
    pv = m.pop(v, None)
    if pv is None:
        pv = v ^ 1
    else:
        del m[pv]
    m[pu] = pv
    m[pv] = pu
    return 0


def kauffman_bracket(diagram: LinkDiagram, coeffs=LaurentCoeffs):
    """Evaluate the bracket; <empty> = 1 and each loop closure contributes delta."""
    pd = diagram.pd
    order = _crossing_order(pd)

    # weights[0 or 1][closed] = A^(+1 or -1) delta^closed
    delta = coeffs.delta
    weights = []
    for k in (1, -1):
        w = coeffs.a_pow(k)
        weights.append((w, w * delta, w * delta * delta))
    dot = coeffs.dot

    # End k of the i-th arc met is 2i + k, so its partner is end ^ 1.
    first: dict[int, int] = {}
    resolutions = []
    for idx in order:
        ends = []
        for a in pd[idx]:
            got = first.get(a)
            if got is None:
                first[a] = got = 2 * len(first)
                ends.append(got)
            else:
                ends.append(got + 1)
        e0, e1, e2, e3 = ends
        resolutions.append(((e0, e1, e2, e3, weights[0]), (e0, e3, e1, e2, weights[1])))

    # A state is a matching of the dangling ends with its value.  Each step
    # groups the resolutions by the matching they produce and sums the terms
    # reaching a matching in one dot.
    states = [({}, coeffs.one)]
    for pairs in resolutions:
        grouped: dict[frozenset, tuple[dict, list]] = {}
        for m, val in states:
            for u, v, x, y, w in pairs:
                m2 = m.copy()
                term = (val, w[_join(m2, u, v) + _join(m2, x, y)])
                key = frozenset(m2.items())
                got = grouped.get(key)
                if got is None:
                    grouped[key] = (m2, [term])
                else:
                    got[1].append(term)
        states = [(m, dot(terms)) for m, terms in grouped.values()]
    if len(states) != 1 or states[0][0]:
        raise RefutationError("state sum did not close up to the empty state")
    out = states[0][1]
    for _ in range(diagram.loops):
        out = out * delta
    return out


# ---------------------------------------------------------------------------
# braid closures


def _check_word(word: Sequence[int], strands: int):
    if strands < 1:
        raise ValueError("need at least one strand")
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ValueError(f"bad generator {g} for {strands} strands")


def braid_pd(word: Sequence[int], strands: int) -> LinkDiagram:
    """Plat-free closure of a braid word; generator ±i crosses strands i, i+1."""
    _check_word(word, strands)
    current = list(range(1, strands + 1))
    fresh = strands + 1
    crossings: list[tuple[int, int, int, int]] = []
    for g in word:
        i = abs(g)
        x, y = current[i - 1], current[i]
        u, v = fresh, fresh + 1
        fresh += 2
        if g > 0:
            crossings.append((x, u, v, y))
        else:
            crossings.append((y, x, u, v))
        current[i - 1], current[i] = u, v

    # Closure identifies the bottom label at each position with the top label.
    parent = {a: a for a in range(1, fresh)}
    for pos in range(strands):
        _union(parent, pos + 1, current[pos])
    pd = tuple(tuple(_find(parent, a) for a in cr) for cr in crossings)
    used = {a for cr in pd for a in cr}
    roots = {_find(parent, a) for a in range(1, fresh)}
    loops = sum(1 for r in roots if r not in used)
    return LinkDiagram(pd, loops)


def braid_permutation(word: Sequence[int], strands: int) -> list[int]:
    """perm[i] = final position of the strand starting at position i (0-based)."""
    _check_word(word, strands)
    pos = list(range(strands))  # pos[p] = strand currently at position p
    for g in word:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    perm = [0] * strands
    for p, s in enumerate(pos):
        perm[s] = p
    return perm


def braid_components(word: Sequence[int], strands: int) -> list[tuple[int, ...]]:
    """Components of the closure as cycles of starting positions (0-based)."""
    perm = braid_permutation(word, strands)
    seen = [False] * strands
    comps = []
    for s in range(strands):
        if seen[s]:
            continue
        cyc = []
        t = s
        while not seen[t]:
            seen[t] = True
            cyc.append(t)
            t = perm[t]
        comps.append(tuple(sorted(cyc)))
    return sorted(comps)


def cable_braid(word: Sequence[int], strands: int, widths: Sequence[int]) -> tuple[list[int], int]:
    """Oracle for necklace_pd: cabled links built from braid closures instead.

    Replace each strand by parallel copies; widths are per starting strand.
    All strands of a closure component must share a width.  A width may be 0,
    which deletes the strand (used nowhere for colors, but harmless).
    """
    _check_word(word, strands)
    if len(widths) != strands or any(w < 0 for w in widths):
        raise ValueError("need one nonnegative width per strand")
    for cyc in braid_components(word, strands):
        if len({widths[s] for s in cyc}) != 1:
            raise ValueError("cable widths must be constant on components")
    cur = [widths[s] for s in range(strands)]
    out: list[int] = []
    for g in word:
        i = abs(g)
        u, v = cur[i - 1], cur[i]
        base = 1 + sum(cur[: i - 1])
        block = [base + u - 1 - k + l for k in range(u) for l in range(v)]
        if g > 0:
            out.extend(block)
        else:
            out.extend(-b for b in reversed(block))
        cur[i - 1], cur[i] = v, u
    return out, sum(widths)


# ---------------------------------------------------------------------------
# component deletion and sublink sums


def delete_components(diagram: LinkDiagram, kill: Iterable[int]) -> LinkDiagram:
    """Oracle for sublink_sums: the diagram left by removing the named
    components (indices into diagram.components())."""
    return _delete_components(diagram, diagram.components(), kill)


def _delete_components(
    diagram: LinkDiagram, comps: list[tuple[int, ...]], kill: Iterable[int]
) -> LinkDiagram:
    """delete_components with the diagram's components already computed."""
    kill = set(kill)
    for k in kill:
        if not 0 <= k < len(comps):
            raise ValueError(f"no component {k}")
    dead_arcs = {a for k in kill for a in comps[k]}

    parent: dict[int, int] = {}
    kept: list[tuple[int, int, int, int]] = []
    for a, b, c, d in diagram.pd:
        under_dead = a in dead_arcs
        over_dead = b in dead_arcs
        if under_dead and over_dead:
            continue
        if under_dead:
            _union(parent, b, d)
        elif over_dead:
            _union(parent, a, c)
        else:
            kept.append((a, b, c, d))
    pd = tuple(tuple(_find(parent, x) for x in cr) for cr in kept)
    used = {a for cr in pd for a in cr}
    # Surviving crossing components that lost every crossing become bare loops.
    freed = 0
    for ci, arcs in enumerate(comps):
        if ci in kill or not arcs:
            continue
        if not any(_find(parent, a) in used for a in arcs):
            freed += 1
    surviving_loops = sum(1 for ci in range(len(comps)) if ci not in kill and not comps[ci])
    return LinkDiagram(pd, freed + surviving_loops)


# The colorings z + c certified for every link, by their constant c: z+2,
# whose quotient by 1+A is the genus-one basis element v, and z+[2] with
# [2] = A^2 + A^-2.  The only place the two colorings are named.
COLORINGS = {"z+2": 2, "z+[2]": IntLaurent({2: 1, -2: 1})}


def sublink_sums(diagram: LinkDiagram) -> list[IntLaurent]:
    """s_k = the sum of <L'> over the sublinks L' left by deleting k components.

    One pass over the 2^mu component subsets; s_0 is <L> itself.
    """
    comps = diagram.components()
    n = len(comps)
    sums = [ZERO] * (n + 1)
    for mask in range(1 << n):
        kill = [i for i in range(n) if mask >> i & 1]
        sub = _delete_components(diagram, comps, kill)
        sums[len(kill)] = sums[len(kill)] + kauffman_bracket(sub)
    return sums


def divisibility_certificate(diagram: LinkDiagram) -> list[dict]:
    """Certify (1+A)^mu | <L(z+c)> for each coloring in COLORINGS, in order.

    Coloring a component z+c keeps it (z) or deletes it with weight c, so
    <L(z+c)> = sum_k c^k s_k, evaluated by Horner's rule: both colorings
    share one pass of sublink state sums, which also gives mu = len(sums) - 1.
    """
    sums = sublink_sums(diagram)
    mu = len(sums) - 1
    certs = []
    for name, const in COLORINGS.items():
        value = sums[-1]
        for s in reversed(sums[:-1]):
            value = value * const + s
        certs.append(_power_certificate(f"(1+A)^mu divides <L({name})>", value, mu))
    return certs


def _power_certificate(claim: str, f: IntLaurent, mu: int) -> dict:
    """(1+A)^mu | f by one exact division, quotient included, or its refutation."""
    head = {"claim": claim, "mu": mu}
    try:
        quotient = f.exact_div(ONE_PLUS_A ** mu)
    except ValueError:
        val, _ = f.val_one_plus_var()
        refutation = {"value": f.to_json(), "attained_valuation": val}
        return {**head, "ok": False, "refutation": refutation}
    return {**head, "ok": True, "value": f.to_json(), "quotient": quotient.to_json()}


def derivative_congruences(f: IntLaurent, mu: int, p: int) -> bool:
    """Oracle for divisibility_certificate, mod p: True iff f^(k)(-1) = 0
    mod p for all 0 <= k < mu; requires mu < p."""
    if not 0 <= mu < p:
        raise ValueError("need 0 <= mu < p")
    g = f
    for _ in range(mu):
        val = g.evaluate(-1)
        if val.denominator != 1:
            raise RefutationError(f"a Laurent polynomial took the value {val} at A = -1")
        if val.numerator % p:
            return False
        g = g.derivative()
    return True


def root_divisibility(f: IntLaurent, mu: int, ctx: CycContext) -> bool:
    """Oracle for divisibility_certificate at a root of unity: True iff
    (1+A)^mu divides f(A) at the root of unity of ctx."""
    value = ctx.from_A_laurent(f)
    if value == ctx.zero:
        return True
    val, _ = value.valuation_one_minus_q()
    return val >= mu


# ---------------------------------------------------------------------------
# necklace diagrams: meridian circles threaded by closed cores


def necklace_pd(circle_widths: Sequence[int], cores: Sequence[Iterable[int]]) -> LinkDiagram:
    """Cabled meridian circles in a row, threaded by width-1 closed cores.

    Circle c is drawn as circle_widths[c] concentric vertical loops at
    horizontal position c.  Each core names the subset of circles it threads
    (0-based, in increasing order); it runs left to right through those
    circles and returns below everything.  Entering a circle the circle lanes
    pass over the core, leaving it the core passes over the lanes, so each
    threading links core and circle once.  A circle of width 0 vanishes (its
    zero-cable is empty); a core threading nothing is still a bare loop.
    """
    widths = list(circle_widths)
    if any(w < 0 for w in widths):
        raise ValueError("circle widths must be nonnegative")
    tracks = [sorted(set(core)) for core in cores]
    for tr in tracks:
        if tr and not (0 <= tr[0] and tr[-1] < len(widths)):
            raise ValueError("core threads a missing circle")

    fresh = [1]

    def new_arc() -> int:
        fresh[0] += 1
        return fresh[0] - 1

    loops = sum(1 for tr in tracks if not tr)

    # Crossing grid per circle: left side then right side, lanes outer->inner
    # on entry and inner->outer on exit along each track.
    threaders = [[t for t, tr in enumerate(tracks) if c in tr] for c in range(len(widths))]

    # Arc segments along each circle lane.  The lane meets, in cyclic order,
    # the left-side crossings of its threading tracks top to bottom, then the
    # right-side crossings bottom to top.
    lane_arcs: dict[tuple[int, int], list[int]] = {}
    lane_events: dict[tuple[int, int], list[tuple[int, str]]] = {}
    for c, w in enumerate(widths):
        ts = threaders[c]
        for j in range(w):
            events = [(t, "L") for t in ts] + [(t, "R") for t in reversed(ts)]
            lane_events[(c, j)] = events
            lane_arcs[(c, j)] = [new_arc() for _ in events] if events else []
            if not events:
                loops += 1

    crossings: list[tuple[int, int, int, int]] = []
    for t, tr in enumerate(tracks):
        if not tr:
            continue
        # The track's own segments, one per crossing it meets, in travel order.
        n_cross = sum(2 * widths[c] for c in tr)
        if n_cross == 0:
            loops += 1
            continue
        track_arcs = [new_arc() for _ in range(n_cross)]
        k = 0
        for c in tr:
            w = widths[c]
            # entry: lanes outermost (j = w-1) down to innermost (j = 0)
            for j in range(w - 1, -1, -1):
                a_in = track_arcs[k - 1] if k else track_arcs[-1]
                a_out = track_arcs[k]
                k += 1
                ev = lane_events[(c, j)].index((t, "L"))
                arcs = lane_arcs[(c, j)]
                lane_before = arcs[ev - 1] if ev else arcs[-1]
                lane_after = arcs[ev]
                # Core is the under-strand, heading east; the lane segment
                # south of the crossing follows it in counterclockwise order.
                crossings.append((a_in, lane_after, a_out, lane_before))
            # exit: innermost out to outermost
            for j in range(w):
                a_in = track_arcs[k - 1]
                a_out = track_arcs[k]
                k += 1
                ev = lane_events[(c, j)].index((t, "R"))
                arcs = lane_arcs[(c, j)]
                lane_before = arcs[ev - 1]
                lane_after = arcs[ev]
                # Lane is the under-strand, heading north up the right side.
                crossings.append((lane_before, a_out, lane_after, a_in))
    return LinkDiagram(tuple(crossings), loops)


# ---------------------------------------------------------------------------
# bundled link corpus


_CORPUS_KEYS = {"name", "braid", "strands", "pd", "loops", "mu", "crossings"}


def load_corpus(path: str | None = None) -> list[dict]:
    """Load the link corpus, validating its structure before returning it.

    With no path the bundled corpus ships with the package.  Any structural
    problem raises ValueError up front so a caller never sees partial data.
    """
    if path is None:
        text = resources.files("skeinlat").joinpath("data/corpus.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus is not valid JSON: {exc}") from exc
    links = obj.get("links") if isinstance(obj, dict) else None
    if not isinstance(links, list) or not links:
        raise ValueError("corpus must be an object with a nonempty 'links' list")
    for entry in links:
        if not isinstance(entry, dict) or not _CORPUS_KEYS <= set(entry):
            raise ValueError(f"corpus entry missing keys: {entry!r:.80}")
        try:
            diag = LinkDiagram.from_json(entry)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {entry['name']!r} is malformed: {exc}") from exc
        if diag.mu != entry["mu"] or diag.crossings != entry["crossings"]:
            raise ValueError(f"corpus entry {entry['name']!r} is inconsistent")
    return links
