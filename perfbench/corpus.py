"""Seeded corpus of random braid closures for the bracket-braids workload.

The benchmark, not the program, draws the braid words; the program only sees
the corpus file written here, in the format `skeinlat bracket --corpus`
reads.  One seed always gives the same bytes.

Every link closes a 7-strand braid with 24 to 32 crossings.  Crossing count
and component count follow a fixed schedule over the link index, so that two
seeds give corpora of the same size profile; the seed draws the words, and so
decides which crossings join two components and which join a component to
itself, that is, how many crossings the 2^mu sublinks of one link share.
Component counts stay in 2..4 (the parity of the crossing count fixes the
parity of 7 - mu) because the sublink sum costs 2^mu state sums and a wider
range makes the total swing with the seed.

Within one (crossings, mu) class the cost of a link still varies several
fold with its word, and with 300 links that made the median and the 90th
percentile of the per-link work (Laurent products) move with the seed by
5-11%.  So each
link is the middle one, by estimated state-sum cost, of CANDIDATES words
drawn for its slot.  The estimate (state_sum_cost) walks every sublink's
crossings in the greedy order a state sum uses and adds, per crossing, a
bound on the states the sum then carries.
"""
from __future__ import annotations

import json
import math
import random

STRANDS = 7
LINKS = 300
MIN_CROSSINGS = 24
MAX_CROSSINGS = 32
CANDIDATES = 5


def _strand_components(word: list[int]) -> list[int]:
    """Component index of each strand of the closure, by starting position."""
    pos = list(range(STRANDS))
    for g in word:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    comp = [-1] * STRANDS
    count = 0
    for s in range(STRANDS):
        if comp[s] < 0:
            while comp[s] < 0:
                comp[s] = count
                s = pos[s]
            count += 1
    return comp


def _components(word: list[int]) -> int:
    """Cycle count of the braid permutation, i.e. the closure's components."""
    return max(_strand_components(word)) + 1


def schedule(index: int) -> tuple[int, int]:
    """(crossings, components) of link number index; the seed plays no part."""
    span = MAX_CROSSINGS - MIN_CROSSINGS + 1
    crossings = MIN_CROSSINGS + index % span
    if crossings % 2 == 0:
        mu = 3
    else:
        mu = 2 if (index // span) % 2 == 0 else 4
    return crossings, mu


def _sublink_words(word: list[int]) -> list[tuple[list[int], int]]:
    """Braid word and strand count of every sublink of the closure of word."""
    comp = _strand_components(word)
    out = []
    for mask in range(1 << (max(comp) + 1)):
        kept = [not mask >> c & 1 for c in comp]
        pos = list(range(STRANDS))
        sub = []
        for g in word:
            i = abs(g) - 1
            if kept[pos[i]] and kept[pos[i + 1]]:
                rank = sum(1 for k in range(i) if kept[pos[k]])
                sub.append((rank + 1) if g > 0 else -(rank + 1))
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out.append((sub, sum(kept)))
    return out


def _frontier_cost(pd: list[list[int]]) -> int:
    """Sum over the crossings, taken greedily (most arcs already seen first),
    of the Catalan number of half the open arc ends.  The states a planar
    state sum carries are non-crossing pairings of the open ends, so this
    bounds the states it visits."""
    remaining = set(range(len(pd)))
    seen: set[int] = set()
    open_ends: set[int] = set()
    cost = 0
    while remaining:
        best = max(sorted(remaining), key=lambda i: sum(1 for a in pd[i] if a in seen))
        remaining.discard(best)
        seen.update(pd[best])
        open_ends.symmetric_difference_update(pd[best])
        half = len(open_ends) // 2
        cost += math.comb(2 * half, half) // (half + 1)
    return cost


def state_sum_cost(word: list[int]) -> int:
    """Estimated work of the sublink sum over the closure of word."""
    return sum(_frontier_cost(closure_pd(sub, strands)[0]) for sub, strands in _sublink_words(word))


def braid_words(seed: int, links: int = LINKS) -> list[list[int]]:
    """Distinct random braid words following schedule(), drawn from seed;
    each the middle one by state_sum_cost of CANDIDATES drawn for its slot."""
    rng = random.Random(seed)
    words: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for index in range(links):
        crossings, mu = schedule(index)
        candidates = []
        while len(candidates) < CANDIDATES:
            word = [rng.choice((-1, 1)) * rng.randrange(1, STRANDS) for _ in range(crossings)]
            if _components(word) == mu and tuple(word) not in seen:
                candidates.append(word)
        word = sorted(candidates, key=state_sum_cost)[CANDIDATES // 2]
        seen.add(tuple(word))
        words.append(word)
    return words


def closure_pd(word: list[int], strands: int = STRANDS) -> tuple[list[list[int]], int]:
    """PD code and crossing-free loop count of the closure of word.

    Generator +i or -i crosses the strands at positions i and i+1; crossings
    list arc labels counterclockwise from the inbound under-strand, and the
    closure glues the bottom label at each position to the top one.
    """
    current = list(range(1, strands + 1))
    fresh = strands + 1
    crossings = []
    for g in word:
        i = abs(g)
        x, y = current[i - 1], current[i]
        u, v = fresh, fresh + 1
        fresh += 2
        crossings.append([x, u, v, y] if g > 0 else [y, x, u, v])
        current[i - 1], current[i] = u, v
    parent = list(range(fresh))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for pos in range(strands):
        ra, rb = find(pos + 1), find(current[pos])
        if ra != rb:
            parent[ra] = rb
    pd = [[find(a) for a in cr] for cr in crossings]
    used = {a for cr in pd for a in cr}
    loops = len({find(a) for a in range(1, fresh)} - used)
    return pd, loops


def corpus_json(seed: int, links: int = LINKS) -> str:
    """The corpus file text for seed: a 'links' list of PD-coded closures."""
    entries = []
    for index, word in enumerate(braid_words(seed, links)):
        pd, loops = closure_pd(word)
        entries.append({
            "name": f"braid{index:03d}",
            "braid": word,
            "strands": STRANDS,
            "pd": pd,
            "loops": loops,
            "mu": _components(word),
            "crossings": len(word),
        })
    return json.dumps({"links": entries}, sort_keys=True) + "\n"
