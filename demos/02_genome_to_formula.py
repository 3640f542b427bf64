"""From integer codons to a formula string.

Shows the genotype-to-phenotype mapping step by step: each codon picks a
production by value mod rule-size, derivation is leftmost, and a genome
can wrap around or blow the depth budget and come back invalid.
"""

from pathlib import Path

from gramevo import Genome, map_genome, parse_grammar, tree_depth

GRAMMAR = Path(__file__).resolve().parent.parent / "grammars" / "pi_canonical.bnf"


def show(grammar, codons, **kwargs):
    result = map_genome(grammar, Genome(codons), **kwargs)
    print(f"codons {list(codons)!r:28s} -> {result.status.name:13s}", end=" ")
    if result.valid:
        print(f"{result.phenotype!r}  (used {result.codons_used}, "
              f"wraps {result.wraps_used}, depth {tree_depth(result.tree)})")
    else:
        print(f"(used {result.codons_used}, wraps {result.wraps_used})")
    return result


def main() -> None:
    grammar = parse_grammar(GRAMMAR.read_text())

    print("single codon, production 9 of <e> is the variable:")
    show(grammar, (9,))

    print("\na constant spends one codon on the rule and four on digits:")
    show(grammar, (10, 1, 2, 3, 4))

    print("\naddition, then x twice; 9 mod 11 = 9 either time:")
    show(grammar, (0, 9, 9))

    print("\nwrapping can rescue a short genome: a constant needs five")
    print("codons, this genome has four, so codon 0 is read again and")
    print("10 mod 10 picks the digit 0:")
    show(grammar, (10, 1, 2, 3), max_wraps=1)

    print("\nwrapping cannot rescue this one: codon value 0 always picks")
    print("the recursive sum production, so the wrap budget runs out:")
    show(grammar, (0, 0), max_wraps=1)

    print("\ndeep nesting is rejected at the expansion whose leaves would")
    print("pass max_depth, here at the third of five codons:")
    show(grammar, (4, 4, 4, 4, 9), max_depth=3)


if __name__ == "__main__":
    main()
