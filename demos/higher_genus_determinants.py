"""Handlebody Gram determinants in genus 2 and 3.

Genus 2 has a basis with unit determinant (the v-colored arrangements);
genus 3 at p = 5 provably has none, and the parity witness printed at the
end is the obstruction: every basis change shifts the (1-q)-valuation of
the determinant by an even amount, and the valuation here is odd."""

from skeinlat.planar import genus3_p5_report, gram_genus2, non_unimodular_witness


def main() -> None:
    for p in (5, 7, 11):
        print(f"genus 2, p = {p}:")
        for basis in ("G", "A", "Av"):
            rep = gram_genus2(p, basis)
            exponent = rep["associate_exponent"]
            tag = "unit" if rep["unimodular"] else f"(1-q)^{exponent} times a unit"
            print(f"  {basis:>2}-basis: rank {rep['rank']}, det {tag}")

    print("genus 3, p = 5:")
    for color in ("v", "omega"):
        rep = genus3_p5_report(color)
        print(
            f"  {color}-recolored basis: rank {rep['rank']} on {rep['curve_total']} curves, "
            f"det valuation {rep['associate_exponent']}, "
            f"entries in the real subring: {rep['plus_subring']}"
        )
    witness = non_unimodular_witness(genus3_p5_report("v"))
    print(f"  witness: {witness['claim']}")
    print(
        f"    gram valuation {witness['gram_valuation']} is odd because the "
        f"parity anchor {witness['parity_anchor']} is odd"
    )


if __name__ == "__main__":
    main()
