import cminverse


def test_every_exported_name_resolves():
    missing = [name for name in cminverse.__all__ if not hasattr(cminverse, name)]
    assert missing == []
    assert len(set(cminverse.__all__)) == len(cminverse.__all__)
