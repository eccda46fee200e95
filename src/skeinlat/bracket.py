"""Kauffman bracket evaluation on planar diagrams, plus diagram builders.

Diagrams are PD-coded: each crossing is a 4-tuple of arc labels listed
counterclockwise starting from the inbound under-strand, so the under-strand
occupies slots 0 and 2.  Crossing-free unknot components are carried in a
separate counter since they never touch an arc label.

The evaluator is a frontier state sum: crossings are resolved one at a time
and partial resolutions are merged whenever they induce the same planar
matching on the dangling arc ends.  Arc ends are ints (end k of the i-th arc
met is 2i + k, so an end's partner is end ^ 1), and a matching is a byte
string with one entry per end.  In both coefficient adapters a state's
value is one packed int, and each term, a state value times a weight
A^(+-1) delta^closed, is added into the state it reaches in place.  The
adapter decides how a term is formed and how the final value is read out:
a few shifts over Z[A, A^-1], or one product folded negacyclically in
Z[x]/(x^(n/2) + 1) at a root of unity in the oracle RootCoeffs, reduced mod
Phi_n once at read-out.  Loop closures contribute delta = -A^2 - A^-2, and
the empty diagram evaluates to 1.

Divisibility certificates color every component z + c for each coloring in
COLORINGS.  One pass over the 2^mu sublinks, grouped by how many components
were deleted, serves both colorings: the state sums are shared and the
coloring is applied afterwards, by Horner's rule.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .cyclotomic import CycContext, CycNum, _pack, _slot_bias, _unpack
from .laurent import IntLaurent, ONE_PLUS_A, ZERO, RefutationError


def _slot_width(n: int) -> int:
    """Slot width of a packed state value over n crossings: every
    coefficient is below 8^n (see LaurentCoeffs), so 3n + 2 bits hold it
    with its sign, rounded up to a multiple of 32 for the struct read-out."""
    w = 3 * n + 2
    return w + -w % 32


class LaurentCoeffs:
    """Coefficient adapter for generic evaluation over Z[A, A^-1].

    After k crossings a state's value is A^(5k) times its partial bracket, a
    polynomial in A^2 packed as one int at A^2 = 2^w.  The weights
    A^5 A^(+-1) delta^closed are polynomials in A^2 of degree at most 5 with
    coefficients +-1 and 2, so a term enters by at most three shifts.  Each
    of the 2^n resolutions adds at most 4^n to a coefficient in size, so all
    are below 8^n, and w = _slot_width(n) holds them; the sum is unpacked
    once."""

    delta = IntLaurent({2: -1, -2: -1})

    @staticmethod
    def state_sum(n: int):
        """(weights, read-out) of a state sum over n crossings; a state starts at 1."""
        w = _slot_width(n)
        w2, w3, w4, w5 = 2 * w, 3 * w, 4 * w, 5 * w
        weights = (
            # A^6, -A^8 - A^4, A^10 + 2 A^6 + A^2
            (lambda v: v << w3, lambda v: -((v << w4) + (v << w2)),
             lambda v: (v << w5) + (v << w3 + 1) + (v << w)),
            # A^4, -A^6 - A^2, A^8 + 2 A^4 + 1
            (lambda v: v << w2, lambda v: -((v << w3) + (v << w)),
             lambda v: (v << w4) + (v << w2 + 1) + v),
        )

        def read(total: int) -> IntLaurent:
            coeffs = _unpack(total, w, 5 * n + 1)
            return IntLaurent({2 * j - 5 * n: c for j, c in enumerate(coeffs)})

        return weights, read


class RootCoeffs:
    """Oracle for kauffman_bracket: evaluation with A specialized to a root
    of unity, the benchmark's root check of the Laurent bracket.

    A state's value is its image in Z[x]/(x^m + 1), m = n/2, which maps
    onto Z[zeta_n] by x -> zeta_n since zeta_n^m = -1, packed as one int at
    x = 2^w.  A term is one product by the packed image of its weight
    A^(+-1) delta^closed, with the m high slots folded onto the low ones,
    negated; the value is reduced mod Phi_n once, at read-out (the delayed
    reduction of Dumas, Giorgi & Pernet, ACM TOMS 35, 2008, on the
    Kronecker-packed ints of the cyclotomic module docstring).  Each zeta^k
    maps to +-x^(k mod m), so no slot exceeds the l1 norm of the Laurent
    value, and LaurentCoeffs' width holds every slot."""

    def __init__(self, ctx: CycContext):
        self.ctx = ctx
        self.delta = -(ctx.A_pow(2) + ctx.A_pow(-2))
        # images[0 or 1][closed] is that of A^(+1 or -1) delta^closed
        self.images = tuple(
            tuple(self._image(IntLaurent({a: 1}) * LaurentCoeffs.delta ** k) for k in range(3))
            for a in (1, -1)
        )

    def _image(self, f: IntLaurent) -> list[int]:
        """f(A) in Z[x]/(x^m + 1): zeta^k is x^k below m and -x^(k-m) from m on."""
        n, m = self.ctx.n, self.ctx.n // 2
        slots = [0] * m
        for e, c in f.c.items():
            k = self.ctx.a_exp * e % n
            slots[k % m] += c if k < m else -c
        return slots

    def state_sum(self, n: int):
        """(weights, read-out) of a state sum over n crossings; a state starts at 1."""
        ctx, m, w = self.ctx, self.ctx.n // 2, _slot_width(n)
        top = m * w
        mask = (1 << top) - 1
        bias = _slot_bias(w, m)

        def fold(c: int):
            # v * c has 2m - 1 signed slots; the bias makes the m low ones
            # one nonnegative field, so a mask and a shift split them off
            def term(v: int) -> int:
                t = v * c + bias
                return (t & mask) - (t >> top) - bias
            return term

        weights = tuple(tuple(fold(_pack(image, w)) for image in row) for row in self.images)

        def read(total: int) -> CycNum:
            return CycNum(ctx, ctx._reduce(_unpack(total, w, m)))

        return weights, read


def _slot_walks(pd: Sequence[tuple[int, int, int, int]]) -> list[list[int]]:
    """Each crossing component as the slots through which a walk along it
    enters its arcs, from its least arc on; components by least arc.

    Slot k of crossing i is 4i + k: slot ^ 2 is the other end of its passage
    through the crossing, and slot ^ 1 lies on the strand crossing it."""
    flat = [x for cr in pd for x in cr]
    slots: dict[int, list[int]] = {}
    for s, x in enumerate(flat):
        slots.setdefault(x, []).append(s)
    seen: set[int] = set()
    walks = []
    for x in sorted(slots):
        if x in seen:
            continue
        s = start = slots[x][0]
        walk: list[int] = []
        while not walk or s != start:
            t = s ^ 2
            walk.append(t)
            seen.add(flat[t])
            here, there = slots[flat[t]]
            s = there if here == t else here
        walks.append(walk)
    return walks


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
        pd = self.pd
        comps = [tuple(sorted(pd[t >> 2][t & 3] for t in walk)) for walk in _slot_walks(pd)]
        return comps + [()] * self.loops

    @property
    def mu(self) -> int:
        return len(self.components())

    @staticmethod
    def from_json(obj: dict) -> "LinkDiagram":
        return LinkDiagram(
            tuple(tuple(_json_int(x, "arc label") for x in cr) for cr in obj.get("pd", [])),
            _json_int(obj.get("loops", 0), "loops"),
        )


def _json_int(value, what: str) -> int:
    """value itself if it is an int; a float or a bool is refused, not rounded."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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


def _join(m, u: int, v: int) -> int:
    """Connect dangling ends u and v in the matching m; 1 if a loop closed.

    m[e] is the partner + 1 of the far end e of a partial strand; 0 marks an
    end on an arc met for the first time, whose strand runs to e ^ 1, and an
    end already joined, so equal matchings have equal bytes."""
    pu = m[u] - 1
    if pu < 0:
        pu = u ^ 1
    m[u] = 0
    if pu == v:
        m[v] = 0
        return 1
    pv = m[v] - 1
    if pv < 0:
        pv = v ^ 1
    m[v] = 0
    m[pu] = pv + 1
    m[pv] = pu + 1
    return 0


def kauffman_bracket(diagram: LinkDiagram, coeffs=LaurentCoeffs):
    """Evaluate the bracket; <empty> = 1 and each loop closure contributes delta."""
    pd = diagram.pd
    weights, read = coeffs.state_sum(len(pd))

    # End k of the i-th arc met is 2i + k, so its partner is end ^ 1.
    first: dict[int, int] = {}
    resolutions = []
    for idx in _crossing_order(pd):
        e0, e1, e2, e3 = (first[a] + 1 if a in first else first.setdefault(a, 2 * len(first))
                          for a in pd[idx])
        resolutions.append(((e0, e1, e2, e3, weights[0]), (e0, e3, e1, e2, weights[1])))

    # A state is a matching of the dangling ends, one entry per end (bytes
    # while every partner + 1 fits in one, wider words past 255 ends), with
    # its value, an int.  Each step groups the resolutions by the matching
    # they produce, adding each term into its matching's entry in place.
    size = 2 * len(first)
    states = [[bytearray(size) if size < 256 else array("L", [0]) * size, 1]]
    for pairs in resolutions:
        grouped: dict[bytes, list] = {}
        for m, val in states:
            for u, v, x, y, w in pairs:
                m2 = m[:]
                term = w[_join(m2, u, v) + _join(m2, x, y)](val)
                key = bytes(m2)
                got = grouped.get(key)
                if got is None:
                    grouped[key] = [m2, term]
                else:
                    got[1] += term
        states = list(grouped.values())
    if len(states) != 1 or any(states[0][0]):
        raise RefutationError("state sum did not close up to the empty state")
    out = read(states[0][1])
    for _ in range(diagram.loops):
        out = out * coeffs.delta
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

    # Closure relabels the top label at each position by the bottom one; a
    # strand that meets no crossing keeps its label and is a bare loop.
    glue = {pos + 1: current[pos] for pos in range(strands)}
    pd = tuple(tuple(glue.get(a, a) for a in cr) for cr in crossings)
    return LinkDiagram(pd, sum(1 for pos in range(strands) if current[pos] == pos + 1))


def braid_components(word: Sequence[int], strands: int) -> list[tuple[int, ...]]:
    """Components of the closure as cycles of starting positions (0-based)."""
    _check_word(word, strands)
    pos = list(range(strands))  # pos[p] = strand currently at position p
    for g in word:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    # Closing joins the strand that ends at position p, pos[p], to the one
    # that starts there, p: the components are the cycles of pos.
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
            t = pos[t]
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
    walks = _crossed_walks(diagram)
    kill = set(kill)
    for k in kill:
        if not 0 <= k < len(walks):
            raise ValueError(f"no component {k}")
    return _sublink(diagram.pd, walks, [k in kill for k in range(len(walks))])


def _crossed_walks(diagram: LinkDiagram) -> list[list[tuple[int, int]]]:
    """Each component's arcs in order along it, each with the component
    crossing the passage into it, components in the order of
    diagram.components(); a crossing-free loop walks nowhere."""
    flat = [x for cr in diagram.pd for x in cr]
    slot_walks = _slot_walks(diagram.pd)
    comp_of = {flat[t]: k for k, walk in enumerate(slot_walks) for t in walk}
    walks = [[(flat[t], comp_of[flat[t ^ 1]]) for t in walk] for walk in slot_walks]
    return walks + [[]] * diagram.loops


def _sublink(
    pd: Sequence[tuple], walks: list[list[tuple[int, int]]], dead: Sequence[int]
) -> LinkDiagram:
    """The diagram left by deleting every component k with dead[k].

    A passage crossed by a deleted component vanishes and joins the arcs on
    either side, so each arc takes the label of the arc its run starts at; a
    kept component with no passage left is a bare loop."""
    label: dict[int, int] = {}
    loops = 0
    for k, walk in enumerate(walks):
        if dead[k]:
            continue
        run = next((x for x, crosser in reversed(walk) if not dead[crosser]), None)
        if run is None:
            loops += 1
            continue
        for x, crosser in walk:
            if not dead[crosser]:
                run = x
            label[x] = run
    kept = (cr for cr in pd if cr[0] in label and cr[1] in label)
    return LinkDiagram(tuple(tuple(label[x] for x in cr) for cr in kept), loops)


# The colorings z + c certified for every link, by their constant c: z+2,
# whose quotient by 1+A is the genus-one basis element v, and z+[2] with
# [2] = A^2 + A^-2.  The only place the two colorings are named.
COLORINGS = {"z+2": 2, "z+[2]": IntLaurent({2: 1, -2: 1})}


def sublink_sums(diagram: LinkDiagram) -> list[IntLaurent]:
    """s_k = the sum of <L'> over the sublinks L' left by deleting k components.

    One pass over the 2^mu component subsets; s_0 is <L> itself.
    """
    walks = _crossed_walks(diagram)
    sums = [ZERO] * (len(walks) + 1)
    for mask in range(1 << len(walks)):
        dead = [mask >> k & 1 for k in range(len(walks))]
        sums[sum(dead)] += kauffman_bracket(_sublink(diagram.pd, walks, dead))
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
            for key in ("mu", "crossings"):
                _json_int(entry[key], key)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corpus entry {entry['name']!r} is malformed: {exc}") from exc
        if diag.mu != entry["mu"] or diag.crossings != entry["crossings"]:
            raise ValueError(f"corpus entry {entry['name']!r} is inconsistent")
    return links
