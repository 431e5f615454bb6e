import enscgp


def test_every_export_resolves():
    missing = [name for name in enscgp.__all__ if not hasattr(enscgp, name)]
    assert missing == []
