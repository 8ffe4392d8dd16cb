import porous


def test_every_export_resolves_once():
    names = porous.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(porous, name)]
    assert missing == []
