import numpy as np
import pytest
from hypothesis import given, strategies as st

from quantaflow import (Coefficients, DomainError, EaclConfig, FeatureMap,
                        FilterAtoms, ShapeError, compose_filters, eacl_forward)
from quantaflow.filters import ACTIVATIONS, _correlate2d, eacl_preactivation


def _random_instance(seed, c_in=1, c_out=1, m=3, k=3, size=8):
    gen = np.random.default_rng(seed)
    inp = FeatureMap(gen.standard_normal((c_in, size, size)))
    phi = Coefficients(gen.standard_normal((c_out, c_in, m)))
    atoms = FilterAtoms(gen.standard_normal((m, k, k)))
    return inp, phi, atoms


class TestCompose:
    def test_single_atom_unit_coeff(self):
        atom = np.arange(9.0).reshape(1, 3, 3)
        phi = Coefficients(np.ones((2, 2, 1)))
        f = compose_filters(phi, FilterAtoms(atom))
        for o in range(2):
            for i in range(2):
                assert np.array_equal(f[o, i], atom[0])

    def test_zero_coeffs(self):
        _, _, atoms = _random_instance(0)
        phi = Coefficients(np.zeros((2, 1, 3)))
        assert np.all(compose_filters(phi, atoms) == 0.0)

    def test_difference_of_atoms(self):
        gen = np.random.default_rng(1)
        a, b = gen.standard_normal((2, 3, 3))
        atoms = FilterAtoms(np.stack([a, b]))
        phi = Coefficients(np.array([[[1.0, -1.0]]]))
        assert np.allclose(compose_filters(phi, atoms)[0, 0], a - b)

    def test_atom_count_mismatch(self):
        _, _, atoms = _random_instance(0, m=3)
        phi = Coefficients(np.zeros((1, 1, 2)))
        with pytest.raises(ShapeError):
            compose_filters(phi, atoms)


class TestForward:
    def test_identity_layer(self):
        inp, _, _ = _random_instance(2)
        phi = Coefficients(np.ones((1, 1, 1)))
        atoms = FilterAtoms(np.ones((1, 1, 1)))
        out = eacl_forward(inp, phi, atoms, EaclConfig(np.zeros(1), "identity"))
        assert np.allclose(out.data, inp.data)

    def test_zero_coeff_bias_relu(self):
        inp, _, atoms = _random_instance(3)
        phi = Coefficients(np.zeros((2, 1, 3)))
        out = eacl_forward(inp, phi, atoms,
                           EaclConfig(np.array([0.7, -0.3]), "relu"))
        assert np.all(out.data[0] == 0.7)
        assert np.all(out.data[1] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_path_equivalence(self, seed):
        # Reference: compose the full filters first, correlate each input
        # channel with its filter, then sum over input channels.
        inp, phi, atoms = _random_instance(seed, c_in=2, c_out=3)
        a = eacl_preactivation(inp, phi, atoms)
        b = _correlate2d(inp.data[None], compose_filters(phi, atoms)).sum(axis=1)
        assert a.shape == b.shape == (3, 8, 8)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_linearity_in_coefficients(self):
        inp, phi1, atoms = _random_instance(7)
        _, phi2, _ = _random_instance(8)
        mixed = Coefficients(2.0 * phi1.data - 0.5 * phi2.data)
        lhs = eacl_preactivation(inp, mixed, atoms)
        rhs = 2.0 * eacl_preactivation(inp, phi1, atoms) \
            - 0.5 * eacl_preactivation(inp, phi2, atoms)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_linearity_in_atoms(self):
        inp, phi, atoms1 = _random_instance(9)
        _, _, atoms2 = _random_instance(10)
        mixed = FilterAtoms(atoms1.data + 3.0 * atoms2.data)
        lhs = eacl_preactivation(inp, phi, mixed)
        rhs = eacl_preactivation(inp, phi, atoms1) \
            + 3.0 * eacl_preactivation(inp, phi, atoms2)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_even_kernel_rejected(self):
        inp, _, _ = _random_instance(4)
        phi = Coefficients(np.ones((1, 1, 1)))
        atoms = FilterAtoms(np.ones((1, 2, 2)))
        with pytest.raises(DomainError):
            eacl_forward(inp, phi, atoms, EaclConfig(np.zeros(1)))

    def test_channel_mismatch(self):
        inp, _, atoms = _random_instance(5, c_in=2)
        phi = Coefficients(np.ones((1, 3, 3)))
        with pytest.raises(ShapeError):
            eacl_forward(inp, phi, atoms, EaclConfig(np.zeros(1)))

    def test_output_dims(self):
        inp, phi, atoms = _random_instance(6, c_in=2, c_out=4, size=10)
        out = eacl_forward(inp, phi, atoms, EaclConfig(np.zeros(4), "tanh"))
        assert (out.channels, out.height, out.width) == (4, 10, 10)


@given(st.sampled_from(["relu", "tanh", "identity", "sigmoid"]),
       st.floats(-50, 50), st.floats(-50, 50))
def test_activations_non_expansive(name, a, b):
    act = ACTIVATIONS[name]
    fa, fb = act(np.float64(a)), act(np.float64(b))
    assert abs(fa - fb) <= abs(a - b) + 1e-15


class TestCorrelate2d:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_equals_ndimage_on_batched_channels(self, k):
        # scipy is the reference only; the package does not use it here.
        ndimage = pytest.importorskip("scipy.ndimage")
        gen = np.random.default_rng(k)
        images = gen.standard_normal((2, 3, 9, 14))      # (batch, channel, h, w)
        kernels = gen.standard_normal((2, 1, k, k))
        kernels[1, 0, k // 2] = 0.0                      # a row of zero weights
        out = _correlate2d(images, kernels)
        assert out.shape == images.shape
        for b in range(2):
            for c in range(3):
                ref = ndimage.correlate(images[b, c], kernels[b, 0],
                                        mode="constant", cval=0.0)
                assert np.array_equal(out[b, c], ref)
