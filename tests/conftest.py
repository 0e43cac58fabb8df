import numpy as np
import pytest

from torus_quant import FiducialSpec, realize_fiducial, weight_from_operator

SEED = 20260810


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_state(rng, d, unit=False):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    if unit:
        v /= np.linalg.norm(v)
    return v


def written_bytes(format_data, *args, **kwargs) -> bytes:
    """The chunks a writer of ``io_formats`` passes to its ``write`` function, joined.

    Each chunk is copied when it is passed: it is valid only until ``write`` returns.
    """
    chunks = []
    format_data(*args, write=lambda chunk: chunks.append(bytes(chunk)), **kwargs)
    return b"".join(chunks)


def random_map(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def hermitian_unit_trace(rng, d):
    """Random hermitian operator with trace exactly one."""
    h = random_map(rng, d)
    h = h + h.conj().T
    return h + (1.0 - np.trace(h)) / d * np.eye(d)


def random_symmetric_weight(rng, d):
    """Random weight whose quantization operator is hermitian by construction."""
    return weight_from_operator(hermitian_unit_trace(rng, d))


def default_catalog(d):
    """One representative recipe of each named kind, valid at dimension d."""
    k0 = 1 % d
    return [
        FiducialSpec.constant(),
        FiducialSpec.kronecker(k0),
        FiducialSpec.plane_wave(k0),
        FiducialSpec.gaussian(1.0),
        FiducialSpec.dirichlet((d - 1) // 2),
        FiducialSpec.von_mises(1.0),
    ]


def catalog_windows(d):
    return [(spec.label(), realize_fiducial(spec, d)) for spec in default_catalog(d)]
