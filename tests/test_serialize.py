"""The one writer is ``json.dumps``: a machine file keeps every float's bits.

A machine document is JSON-native (:func:`qnot.serialize.machine_to_dict`)
and :func:`qnot.serialize.dumps` is the C encoder with ``allow_nan=False``.
Each case writes a machine whose unitary holds the cells under test and
reads the file back: every cell returns bit for bit, so a sign of zero or a
float next to 1 is never lost.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnot import Machine, TargetMap
from qnot.serialize import dumps, machine_from_dict, machine_to_dict

SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.1, 5e-324, 2.5e-310,
           2.2250738585072014e-308, 1e308, -1e308, 1e16, 1.5e-7,
           1.0000000000000002, 0.9999999999999999]
parts = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(allow_nan=False, allow_infinity=False))


def machine_text(z) -> str:
    """The file text of a system-only machine with unitary ``z``."""
    machine = Machine(z.shape[0], 1, TargetMap.CONJUGATE, z, [1.0], [0.0])
    return dumps(machine_to_dict(machine))


def assert_round_trip(z, text):
    """``text`` reads back as ``z``, bit for bit."""
    back = machine_from_dict(json.loads(text)).unitary
    want = np.ascontiguousarray(z, dtype=complex)
    np.testing.assert_array_equal(back.view(np.uint64), want.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matrix_text_equals_the_encoder(data):
    size = data.draw(st.integers(1, 9))
    h = data.draw(st.integers(0, size))
    w = data.draw(st.integers(0, size))
    cells = data.draw(st.lists(st.tuples(parts, parts),
                               min_size=h * w, max_size=h * w))
    r = data.draw(st.integers(0, size - h))
    c = data.draw(st.integers(0, size - w))
    z = np.eye(size, dtype=complex)
    z[r:r + h, c:c + w] = np.array(
        [complex(x, y) for x, y in cells]).reshape(h, w)
    text = machine_text(z)
    assert text == json.dumps(json.loads(text)) + "\n"
    assert_round_trip(z, text)


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
    """``-0.0`` never prints as ``0.0``, and neither ``1 - 0j`` nor a float
    next to 1 prints as ``[1.0, 0.0]``."""
    z = np.eye(5, dtype=complex)
    z[where] = cell
    text = machine_text(z)
    assert f"[{cell.real!r}, {cell.imag!r}]" in text
    assert_round_trip(z, text)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (6, 6)])
def test_empty_zero_and_identity_arrays(shape):
    """No array is printed as such, whatever its shape: a document holds
    the nested ``[re, im]`` lists of :func:`machine_to_dict`."""
    for z in (np.zeros(shape, complex), np.eye(*shape, dtype=complex)):
        with pytest.raises(TypeError):
            dumps({"a": "x", "unitary": z, "b": None})
        if shape[0] == shape[1] and shape[0]:
            assert_round_trip(z, machine_text(z))


def test_views_and_narrow_dtypes_print_their_values():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for view in (z.T, z[::2, 1::2], z.astype(np.complex64)):
        assert_round_trip(view, machine_text(view))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("imag", [False, True])
def test_non_finite_cells_are_refused(value, imag):
    z = np.eye(6, dtype=complex)
    z[4, 1] = complex(0.0, value) if imag else complex(value, 0.0)
    doc = machine_to_dict(Machine(3, 2, TargetMap.CONJUGATE, z, [1.0], [0.0]))
    with pytest.raises(ValueError):
        dumps(doc)


def test_other_arrays_and_keys_are_not_rendered():
    """The writer prints JSON-native values only; an array is refused."""
    with pytest.raises(TypeError):
        dumps({"unitary": np.eye(2)})
    with pytest.raises(TypeError):
        dumps({"amps": np.ones(2, complex)})
    with pytest.raises(TypeError):
        dumps({1: np.eye(2, dtype=complex)})
