"""Divisibility of recolored bracket values by powers of (1+A).

Every mu-component link evaluated at z+2 (each component cabled by the
core plus an extra parallel copy weighted 2) has bracket divisible by
(1+A)^mu.  The demo certifies the bundled corpus and then a link built
fresh from a braid word."""

from skeinlat.bracket import (
    COLORINGS,
    braid_pd,
    divisibility_certificate,
    LinkDiagram,
    load_corpus,
)


def show(name: str, diagram: LinkDiagram) -> None:
    for coloring, cert in zip(COLORINGS, divisibility_certificate(diagram)):
        state = "divides" if cert["ok"] else "FAILS to divide"
        print(f"  {name}: (1+A)^{cert['mu']} {state} the {coloring} bracket")


def main() -> None:
    print("bundled corpus:")
    for entry in load_corpus():
        show(entry["name"], LinkDiagram.from_json(entry))

    print("a fresh 3-strand braid closure:")
    word = [1, 1, -2, 1, -2, -2]
    show(f"braid {word}", braid_pd(word, 3))


if __name__ == "__main__":
    main()
