import numpy as np
import pytest

from torus_quant import (
    Weight,
    coherent_state_weight,
    portrait,
    portrait_of_symbol,
    quantization_operator,
    quantize,
    quantize_momentum,
    quantize_position,
    symplectic_dft,
    weight_from_operator,
)

import oracles
from conftest import random_map, random_state


def _asymmetric_weight(rng, d):
    values = random_map(rng, d)
    values[0, 0] = 1.0
    return Weight(values)


def _unit_trace_operator(rng, d):
    m = random_map(rng, d)
    return m + (1.0 - np.trace(m)) / d * np.eye(d)


def _coherent_state_weight(rng, d):
    phi = random_state(rng, d, unit=True)
    return coherent_state_weight(phi).values, oracles.coherent_state_weight_sum(phi)


def _weight_from_operator(rng, d):
    m = _unit_trace_operator(rng, d)
    return weight_from_operator(m).values, oracles.weight_from_operator_sum(m)


def _quantization_operator(rng, d):
    w = _asymmetric_weight(rng, d)
    return quantization_operator(w), oracles.quantization_operator_sum(w)


def _symplectic_dft(rng, d):
    f = random_map(rng, d)
    return symplectic_dft(f), oracles.symplectic_dft_sum(f)


def _symplectic_dft_conjugate(rng, d):
    f = random_map(rng, d)
    return symplectic_dft(f, conjugate=True), oracles.symplectic_dft_sum(f, conjugate=True)


def _quantize(rng, d):
    f, w = random_map(rng, d), _asymmetric_weight(rng, d)
    return quantize(f, w), oracles.quantize_sum(f, w)


def _quantize_momentum(rng, d):
    g, w = random_state(rng, d), _asymmetric_weight(rng, d)
    return quantize_momentum(g, w), oracles.quantize_sum(np.tile(g[:, None], (1, d)), w)


def _quantize_position(rng, d):
    h, w = random_state(rng, d), _asymmetric_weight(rng, d)
    return quantize_position(h, w), oracles.quantize_sum(np.tile(h, (d, 1)), w)


def _portrait(rng, d):
    op, w = random_map(rng, d), _asymmetric_weight(rng, d)
    return portrait(op, w), oracles.portrait_sum(op, w)


def _portrait_of_symbol(rng, d):
    f, w = random_map(rng, d), _asymmetric_weight(rng, d)
    return portrait_of_symbol(f, w), oracles.portrait_of_symbol_sum(f, w)


CASES = [_coherent_state_weight, _weight_from_operator, _quantization_operator,
         _symplectic_dft, _symplectic_dft_conjugate, _quantize, _quantize_momentum,
         _quantize_position, _portrait, _portrait_of_symbol]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8, 9, 12])
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__.lstrip("_"))
def test_closed_form_matches_literal_sum(rng, case, d):
    """Each closed form equals its defining O(d^4) sum, with asymmetric
    weights and non-hermitian operators and symbols."""
    closed, literal = case(rng, d)
    assert closed.shape == literal.shape == (d, d)
    assert np.abs(closed - literal).max() < 1e-12
