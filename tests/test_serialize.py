"""The one writer prints a complex matrix byte for byte as ``json`` would.

:func:`qnot.serialize.dumps` renders a complex 2-d array at the top level of
a document itself.  Every case here compares it with ``json.dumps`` of the
nested ``[re, im]`` lists, so any difference in float text, sign of zero,
separators or order is a failure.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnot.serialize import _complex_lists, dumps

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.1, 5e-324, 2.5e-310,
           2.2250738585072014e-308, 1e308, -1e308, 1e16, 1.5e-7,
           1.0000000000000002, 0.9999999999999999]
parts = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(allow_nan=False, allow_infinity=False))


def reference(doc) -> str:
    """The writer's output as the C encoder prints the nested lists."""
    lists = {k: _complex_lists(v) if isinstance(v, np.ndarray) else v
             for k, v in doc.items()}
    return json.dumps(lists, allow_nan=False) + "\n"


def machine_like(rows, cols, block_at, block):
    """Identity-like array (ones on the diagonal) with ``block`` written
    into it at ``block_at``."""
    z = np.eye(rows, cols, dtype=complex)
    r, c = block_at
    z[r:r + block.shape[0], c:c + block.shape[1]] = block
    return z


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_text_equals_the_encoder(data):
    rows = data.draw(st.integers(1, 9))
    cols = data.draw(st.integers(1, 9))
    h = data.draw(st.integers(0, rows))
    w = data.draw(st.integers(0, cols))
    cells = data.draw(st.lists(st.tuples(parts, parts),
                               min_size=h * w, max_size=h * w))
    block = np.array([complex(x, y) for x, y in cells]).reshape(h, w)
    at = (data.draw(st.integers(0, rows - h)),
          data.draw(st.integers(0, cols - w)))
    z = machine_like(rows, cols, at, block)
    doc = {"system_dim": 2, "unitary": z, "gammas": [0.25, 1.0]}
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("cell", [complex(-0.0, 0.0), complex(0.0, -0.0),
                                  complex(-0.0, -0.0), complex(1.0, -0.0),
                                  complex(-1.0, 0.0), complex(1.0, 5e-324),
                                  complex(5e-324, 0.0), complex(2.0, 0.0),
                                  complex(1e308, -1e308),
                                  complex(2.5e-310, 1.0),
                                  complex(1.0000000000000002, 0.0),
                                  complex(0.9999999999999999, 0.0)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 0), (3, 4)])
def test_signed_zeros_and_edge_floats_keep_their_text(cell, where):
    """Cells are told apart by their bits: ``-0.0`` never prints as ``0.0``,
    and neither ``1 - 0j`` nor a float next to 1 prints as ``[1.0, 0.0]``."""
    z = np.eye(4, 5, dtype=complex)
    z[where] = cell
    doc = {"unitary": z}
    assert dumps(doc) == reference(doc)
    assert f"[{cell.real!r}, {cell.imag!r}]" in dumps(doc)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (6, 6)])
def test_empty_zero_and_identity_arrays(shape):
    for z in (np.zeros(shape, complex), np.eye(*shape, dtype=complex)):
        doc = {"a": "x", "unitary": z, "b": None}
        assert dumps(doc) == reference(doc)


def test_views_and_narrow_dtypes_print_their_values():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    for view in (z.T, z[::2, 1::3], z.astype(np.complex64)):
        doc = {"unitary": view}
        assert dumps(doc) == reference(doc)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imag", [False, True])
def test_non_finite_cells_are_refused(value, imag):
    z = np.eye(6, dtype=complex)
    z[4, 1] = complex(0.0, value) if imag else complex(value, 0.0)
    with pytest.raises(ValueError):
        dumps({"unitary": z})


def test_other_arrays_and_keys_are_not_rendered():
    """Only a complex 2-d array under a string key is the writer's own."""
    with pytest.raises(TypeError):
        dumps({"unitary": np.eye(2)})
    with pytest.raises(TypeError):
        dumps({"amps": np.ones(2, complex)})
    with pytest.raises(TypeError):
        dumps({1: np.eye(2, dtype=complex)})
