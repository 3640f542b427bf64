"""Tour of the BNF grammar module.

Loads the expression grammar used throughout the project, walks its
rules, and shows the derived minimum expansion depths.
"""

from pathlib import Path

from gramevo import format_grammar, parse_grammar, production_count

GRAMMAR = Path(__file__).resolve().parent.parent / "grammars" / "pi_canonical.bnf"


def main() -> None:
    text = GRAMMAR.read_text()
    grammar = parse_grammar(text)

    print(f"start symbol: <{grammar.start}>")
    for name, productions in grammar.rules.items():
        print(f"\n<{name}> has {production_count(grammar, name)} productions:")
        for i, prod in enumerate(productions):
            print(f"  [{i:2d}] {prod}")

    # min_depth counts how many expansion levels a nonterminal needs
    # before every branch reaches a terminal
    print("\nminimum expansion depths:", grammar.min_depth)

    # formatting then reparsing yields the same grammar object
    assert parse_grammar(format_grammar(grammar)) == grammar
    print("format -> parse round-trip: ok")


if __name__ == "__main__":
    main()
