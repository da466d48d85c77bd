from mutants import MUTANTS, ROOT


def test_every_mutant_still_applies():
    # each mutant's old text occurs exactly once under src/, in its file,
    # so a refactor that moves it must bring the mutant along
    sources = [p.read_text() for p in (ROOT / "src").rglob("*.py")]
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new, m.name
        assert sum(text.count(m.old) for text in sources) == 1, m.name
        assert m.old in (ROOT / m.file).read_text(), m.name
        # a test is a file, or one test in it as pytest names it: file::test
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name
