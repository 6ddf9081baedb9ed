"""The package's public names."""
import qnot


def test_every_exported_name_resolves():
    """``import qnot`` does not check ``__all__``; a stale entry shows here."""
    assert [name for name in qnot.__all__ if not hasattr(qnot, name)] == []
    assert len(set(qnot.__all__)) == len(qnot.__all__)
