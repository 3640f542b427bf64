import pytest

from gramevo import (
    ConfigError,
    EmptyProduction,
    Grammar,
    GrammarSyntaxError,
    InfiniteGrammar,
    NoRules,
    Production,
    Symbol,
    UndefinedNonterminal,
    UnknownNonterminal,
    UnterminatedNonterminal,
    format_grammar,
    parse_grammar,
    production_count,
)


def test_shipped_grammar_shape(pi_paper_grammar):
    assert pi_paper_grammar.start == "e"
    assert set(pi_paper_grammar.rules) == {"e", "c"}
    assert production_count(pi_paper_grammar, "e") == 11
    assert production_count(pi_paper_grammar, "c") == 10


def test_shipped_grammar_production_order(pi_paper_grammar):
    alts = [str(p) for p in pi_paper_grammar.rules["e"]]
    assert alts == [
        "<e>+<e>",
        "<e>-<e>",
        "<e>*<e>",
        "pdiv(<e>,<e>)",
        "psqrt(<e>)",
        "np.sin(<e>)",
        "np.tanh(<e>)",
        "np.exp(<e>)",
        "plog(<e>)",
        "x[:, 0]",
        "<c><c>.<c><c>",
    ]
    assert [str(p) for p in pi_paper_grammar.rules["c"]] == [str(d) for d in range(10)]


def test_canonical_grammar_mirrors_surface_variant(pi_paper_grammar, canonical_grammar):
    assert canonical_grammar.start == "e"
    assert production_count(canonical_grammar, "e") == 11
    assert production_count(canonical_grammar, "c") == 10
    # same arity structure alternative by alternative
    for a, b in zip(pi_paper_grammar.rules["e"], canonical_grammar.rules["e"]):
        assert len([s for s in a.symbols if not s.is_terminal]) == len(
            [s for s in b.symbols if not s.is_terminal]
        )


def test_multichar_terminal_keeps_interior_space(pi_paper_grammar):
    x_production = pi_paper_grammar.rules["e"][9]
    assert len(x_production.symbols) == 1
    assert x_production.symbols[0] == Symbol("x[:, 0]", is_terminal=True)


def test_smallest_grammar():
    g = parse_grammar("<s> ::= a")
    assert g.start == "s"
    assert g.rules["s"] == (Production((Symbol("a", True),)),)
    assert production_count(g, "s") == 1


def test_rule_body_spans_lines_and_comments():
    text = """# leading comment
<s> ::= a |
        b<t> |
        c
# interior comment
<t> ::= z
"""
    g = parse_grammar(text)
    assert [str(p) for p in g.rules["s"]] == ["a", "b<t>", "c"]
    assert [str(p) for p in g.rules["t"]] == ["z"]


def test_duplicate_rule_headers_append():
    g = parse_grammar("<s> ::= a\n<s> ::= b | c")
    assert [str(p) for p in g.rules["s"]] == ["a", "b", "c"]


def test_undefined_nonterminal():
    with pytest.raises(UndefinedNonterminal) as err:
        parse_grammar("<s> ::= <t>")
    assert err.value.name == "t"


def test_no_rules():
    with pytest.raises(NoRules):
        parse_grammar("")
    with pytest.raises(NoRules):
        parse_grammar("# only a comment\n")


def test_parse_grammar_rejects_text_that_is_no_str():
    with pytest.raises(ConfigError) as caught:
        parse_grammar(None)
    assert str(caught.value) == "BNF text must be a str, not NoneType"


def test_preamble_text_rejected():
    with pytest.raises(GrammarSyntaxError):
        parse_grammar("stray words\n<s> ::= a")


def test_empty_production():
    with pytest.raises(EmptyProduction):
        parse_grammar("<s> ::= a |  | b")
    with pytest.raises(EmptyProduction):
        parse_grammar("<s> ::= ")


def test_unterminated_nonterminal():
    with pytest.raises(UnterminatedNonterminal):
        parse_grammar("<s> ::= a<t")


def test_infinite_grammar():
    with pytest.raises(InfiniteGrammar):
        parse_grammar("<s> ::= <s>")
    with pytest.raises(InfiniteGrammar):
        # mutual recursion with no terminal escape
        parse_grammar("<s> ::= <t>\n<t> ::= <s>a")


def test_min_depths(pi_paper_grammar, canonical_grammar):
    # the all-terminal alternative gives both nonterminals depth 1
    assert pi_paper_grammar.min_depth == {"e": 1, "c": 1}
    assert canonical_grammar.min_depth == {"e": 1, "c": 1}
    assert parse_grammar("<s> ::= a").min_depth == {"s": 1}
    # chain adds one level per nonterminal hop
    chain = parse_grammar("<a> ::= <b>\n<b> ::= z")
    assert chain.min_depth == {"a": 2, "b": 1}
    # recursion with an escape stays at the escape depth
    rec = parse_grammar("<s> ::= <s>a | b")
    assert rec.min_depth == {"s": 1}


def test_grammar_constructor_computes_min_depth():
    # a grammar built directly computes its own depths, as parse_grammar's does
    parsed = parse_grammar("<s> ::= <s>a | b")
    built = Grammar(start="s", rules=dict(parsed.rules))
    assert built == parsed
    assert built.min_depth == {"s": 1}
    with pytest.raises(TypeError):
        Grammar(start="s", rules=dict(parsed.rules), min_depth={"s": 99})


def test_grammar_constructor_rejects_infinite_rule():
    # <a> ::= <a> can never finish a derivation
    loop = (Production((Symbol("a", is_terminal=False),)),)
    with pytest.raises(InfiniteGrammar):
        Grammar(start="a", rules={"a": loop})


def test_unknown_nonterminal_lookup(pi_paper_grammar):
    with pytest.raises(UnknownNonterminal):
        production_count(pi_paper_grammar, "zzz")


@pytest.mark.parametrize("source", [
    "<s> ::= a",
    "<s> ::= a | b<t> | <t><t>\n<t> ::= z | y",
])
def test_format_round_trip_small(source):
    g = parse_grammar(source)
    g2 = parse_grammar(format_grammar(g))
    assert list(g2.rules) == list(g.rules)
    for name in g.rules:
        assert g2.rules[name] == g.rules[name]


def test_format_round_trip_shipped(pi_paper_grammar, canonical_grammar):
    for g in (pi_paper_grammar, canonical_grammar):
        g2 = parse_grammar(format_grammar(g))
        assert g2.start == g.start
        assert list(g2.rules) == list(g.rules)
        for name in g.rules:
            assert g2.rules[name] == g.rules[name]
            # order preservation, alternative by alternative
            assert [str(p) for p in g2.rules[name]] == [
                str(p) for p in g.rules[name]
            ]


def test_parse_is_deterministic():
    text = "<s> ::= a | b<t>\n<t> ::= z"
    assert parse_grammar(text) == parse_grammar(text)


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol("", is_terminal=True)
    with pytest.raises(ValueError):
        Symbol("   ", is_terminal=True)    # whitespace-only terminal
    with pytest.raises(ValueError):
        Symbol("a|b", is_terminal=False)
    with pytest.raises(ValueError):
        Production(())


CHAINED = """\
<s> ::= <t>
<t> ::= <s>k | <u>u | q<u>
<u> ::= k
"""


@pytest.mark.parametrize("source", [None, CHAINED])
def test_min_depth_soundness(pi_paper_grammar, source):
    # independent oracle: min_depth(n) is the smallest budget d such
    # that n can be fully expanded to terminals within d levels
    grammar = pi_paper_grammar if source is None else parse_grammar(source)
    depths = grammar.min_depth

    def expandable(name: str, budget: int) -> bool:
        if budget <= 0:
            return False
        return any(
            all(expandable(s.text, budget - 1)
                for s in prod.symbols if not s.is_terminal)
            for prod in grammar.rules[name]
        )

    for name, depth in depths.items():
        assert expandable(name, depth)
        assert not expandable(name, depth - 1)
