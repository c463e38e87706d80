import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
import scipy.special
import scipy.stats as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import multigammaln

from bayes_ssi import rng as rng_module
from bayes_ssi.rng import (
    DRAW_STREAM,
    GIBBS_STREAM,
    SIMULATE_STREAM,
    STAB_DRAW_STREAM_BASE,
    VB_INIT_STREAM,
    NotPositiveDefiniteError,
    Rng,
    _bartlett_factor,
    _scipy_extension,
    chol_solve,
    log_multigamma,
    sample_inverse_wishart_pair,
    solve_lower,
    spd_cholesky,
    validate_spd,
)

import oracles


def inverse_wishart_draws(rng, scale, dof, n):
    """n draws of the pair's first element, stacked."""
    return np.array([sample_inverse_wishart_pair(rng, scale, dof)[0] for _ in range(n)])


class TestRngStreams:
    def test_same_seed_stream_bit_identical(self):
        a = Rng(99, 3).standard_normal(1000)
        b = Rng(99, 3).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(99, 0).standard_normal(1000)
        b = Rng(99, 1).standard_normal(1000)
        assert not np.array_equal(a, b)

    def test_streams_statistically_independent(self):
        n = 100_000
        a = Rng(7, 0).standard_normal(n)
        b = Rng(7, 1).standard_normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_is_numpys_pcg64_generator(self):
        gen = Rng(99, 3)
        assert isinstance(gen, np.random.Generator)
        assert isinstance(gen.bit_generator, np.random.PCG64)
        seq = np.random.SeedSequence(99, spawn_key=(3,))
        expected = np.random.Generator(np.random.PCG64(seq)).standard_normal(10)
        assert np.array_equal(gen.standard_normal(10), expected)

    def test_stream_allocation(self):
        fixed = [SIMULATE_STREAM, GIBBS_STREAM, VB_INIT_STREAM, DRAW_STREAM]
        # every artifact's bits depend on these values
        assert fixed + [STAB_DRAW_STREAM_BASE] == [0, 1, 2, 3, 100]
        assert len(set(fixed)) == len(fixed)
        # stabilisation orders start at 1, so no base + order meets a fixed stream
        assert STAB_DRAW_STREAM_BASE + 1 > max(fixed)


def first_failing_minor(mat):
    """1-based index of the first leading minor that is not positive
    definite, found by factoring each in turn; None if none fails."""
    for k in range(1, mat.shape[0] + 1):
        try:
            np.linalg.cholesky(mat[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return None


class TestSpdChecks:
    def test_validate_spd_accepts_identity(self):
        validate_spd(np.eye(3))

    def test_asymmetric_rejected(self):
        mat = np.eye(3)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            validate_spd(mat)

    def test_failing_pivot_named(self):
        mat = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError, match="pivot 3"):
            spd_cholesky(mat)

    @settings(max_examples=200, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), dim=hst.integers(1, 12), data=hst.data())
    def test_pivot_is_the_first_failing_leading_minor(self, seed, dim, data):
        # a random SPD matrix with one diagonal entry lowered: the pivot
        # named is the first leading minor whose own factorization fails
        gen = np.random.default_rng(seed)
        base = gen.standard_normal((dim, dim))
        mat = base @ base.T + np.eye(dim)
        k = data.draw(hst.integers(0, dim - 1))
        mat[k, k] -= data.draw(hst.floats(0.0, 2.0)) * mat[k, k]
        expected = first_failing_minor(mat)
        if expected is None:
            spd_cholesky(mat)
        else:
            with pytest.raises(NotPositiveDefiniteError) as err:
                spd_cholesky(mat)
            assert err.value.pivot == expected
            assert f"pivot {expected} failed" in str(err.value)

    def test_non_square_keeps_numpys_error(self):
        with pytest.raises(np.linalg.LinAlgError, match="square"):
            spd_cholesky(np.ones((2, 3)))

    def test_cholesky_factor_reconstructs(self):
        gen = np.random.default_rng(0)
        base = gen.standard_normal((5, 5))
        mat = base @ base.T + 5 * np.eye(5)
        chol = spd_cholesky(mat)
        assert np.allclose(chol @ chol.T, mat)


class TestSampleInverseWishart:
    def test_mean_formula(self):
        # scale = I2, dof = 6 -> mean = I / (6 - 2 - 1) = I/3
        draws = inverse_wishart_draws(Rng(31, 0), np.eye(2), 6.0, 50_000)
        se = oracles.mc_standard_error(draws)
        assert np.all(np.abs(draws.mean(axis=0) - np.eye(2) / 3.0) < 3 * se)

    def test_inverse_is_wishart_ks(self):
        # inverse of each draw ~ Wishart(scale^-1, dof): two-sample KS on
        # the (1,1) marginal at the 1% level against scipy's Wishart
        n = 4000
        scale = np.array([[2.0, 0.3], [0.3, 1.0]])
        iw_inv = np.linalg.inv(inverse_wishart_draws(Rng(32, 0), scale, 7.0, n))[:, 0, 0]
        w_direct = st.wishart(df=7.0, scale=np.linalg.inv(scale)).rvs(
            n, random_state=np.random.default_rng(32))[:, 0, 0]
        assert st.ks_2samp(iw_inv, w_direct).pvalue > 0.01

    def test_scalar_reduces_to_inverse_gamma(self):
        # 1-d inverse Wishart(scale, dof) is InvGamma(dof/2, scale/2):
        # one-sample KS at the 1% level
        scale, dof = 3.0, 5.0
        draws = inverse_wishart_draws(Rng(35, 0), np.array([[scale]]), dof, 4000)
        ig = st.invgamma(a=dof / 2.0, scale=scale / 2.0)
        assert st.kstest(draws[:, 0, 0], ig.cdf).pvalue > 0.01

    def test_draws_are_spd(self):
        for draw in inverse_wishart_draws(Rng(33, 0), np.eye(3), 5.5, 20):
            validate_spd(draw)

    def test_dof_too_small(self):
        with pytest.raises(ValueError, match="dof"):
            sample_inverse_wishart_pair(Rng(0), np.eye(3), 1.5)

    @pytest.mark.parametrize("dim", [1, 4, 60])
    def test_pair_is_draw_and_its_inverse(self, dim):
        # the first entry is L A^-T A^-1 L^T for the Bartlett factor A the
        # same stream gives, and the second entry inverts the first
        gen = np.random.default_rng(dim)
        base = gen.standard_normal((dim, dim))
        scale = base @ base.T + dim * np.eye(dim)
        chol = np.linalg.cholesky(scale)
        rng_pair, rng_bartlett = Rng(34, 0), Rng(34, 0)
        for _ in range(3):
            draw, prec = sample_inverse_wishart_pair(rng_pair, scale, dim + 3.0)
            root = chol @ np.linalg.inv(_bartlett_factor(rng_bartlett, dim, dim + 3.0)).T
            assert draw == pytest.approx(root @ root.T, rel=1e-9, abs=1e-12)
            assert np.array_equal(draw, draw.T)
            assert np.array_equal(prec, prec.T)
            assert prec @ draw == pytest.approx(np.eye(dim), abs=1e-9)


class TestLogMultigamma:
    def test_equals_scipy_multigammaln(self):
        for dim in range(1, 130):
            for a in (0.5 * (dim - 1) + 0.25, 0.5 * dim + 1.0, 0.5 * dim + 37.3,
                      0.5 * (dim + 8193)):
                assert log_multigamma(a, dim) == multigammaln(a, dim), (a, dim)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            log_multigamma(1.0, 3)


class TestLapackSolves:
    """The LAPACK solves equal scipy's wrappers bit for bit, on C-ordered
    factors and on C- and Fortran-ordered right-hand sides."""

    @staticmethod
    def factor_and_rhs(dim):
        gen = np.random.default_rng(dim)
        base = gen.standard_normal((dim, dim))
        chol = np.linalg.cholesky(base @ base.T + dim * np.eye(dim))
        return chol, [gen.standard_normal(dim), gen.standard_normal((dim, 3)),
                      gen.standard_normal((2 * dim + 1, dim)).T]

    @pytest.mark.parametrize("dim", [1, 2, 8, 60, 120])
    def test_chol_solve_equals_cho_solve(self, dim):
        chol, rhs = self.factor_and_rhs(dim)
        for b in [*rhs, np.eye(dim)]:
            assert np.array_equal(chol_solve(chol, b), cho_solve((chol, True), b))

    @pytest.mark.parametrize("dim", [1, 2, 8, 60, 120])
    def test_solve_lower_equals_solve_triangular(self, dim):
        chol, rhs = self.factor_and_rhs(dim)
        for b in rhs:
            assert np.array_equal(solve_lower(chol, b),
                                  solve_triangular(chol, b, lower=True))
            assert np.array_equal(solve_lower(chol, b, transpose=True),
                                  solve_triangular(chol.T, b, lower=False))


class TestBartlettFactor:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_general_construction(self, dim):
        # chi-square diagonal, then row-ordered normals below it: the factor
        # and the generator's next draw are bit-identical at every dimension
        dof = dim + 2.5
        fast, general = Rng(36, 0), Rng(36, 0)
        expected = np.zeros((dim, dim))
        expected.flat[::dim + 1] = np.sqrt(general.chisquare(dof - np.arange(dim)))
        expected[np.tril_indices(dim, -1)] = general.standard_normal(
            dim * (dim - 1) // 2)
        assert np.array_equal(_bartlett_factor(fast, dim, dof), expected)
        assert fast.standard_normal() == general.standard_normal()


def run_probe(probe: str) -> list[str]:
    """Output lines of ``probe`` in a fresh interpreter that imports the
    package from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


SAME_AS_SCIPY = """
import numpy as np, scipy.linalg, scipy.linalg.lapack, scipy.special
gen = np.random.default_rng(0)
base = gen.standard_normal((8, 8))
chol = np.linalg.cholesky(base @ base.T + 8 * np.eye(8))
rhs = gen.standard_normal((8, 3))
print(rng.dtrtrs is scipy.linalg.lapack.dtrtrs, rng.dpotrs is scipy.linalg.lapack.dpotrs,
      rng.dpotrf is scipy.linalg.lapack.dpotrf,
      rng.gammaln is scipy.special.gammaln, rng.digamma is scipy.special.psi,
      np.array_equal(rng.solve_lower(chol, rhs),
                     scipy.linalg.solve_triangular(chol, rhs, lower=True)),
      np.array_equal(rng.chol_solve(chol, rhs), scipy.linalg.cho_solve((chol, True), rhs)),
      rng.log_multigamma(40.5, 60) == scipy.special.multigammaln(40.5, 60))
"""


class TestScipyExtensions:
    """``rng`` loads scipy's compiled modules without their subpackages; its
    functions are the very objects those subpackages export."""

    def test_functions_are_the_subpackages_own(self):
        probe = ("from bayes_ssi import rng\n"
                 "print(rng._flapack.__name__, rng._ufuncs.__name__)\n" + SAME_AS_SCIPY)
        assert run_probe(probe) == ["scipy.linalg._flapack",
                                    "scipy.special._special_ufuncs"] + ["True"] * 8

    def test_falls_back_to_the_subpackages_without_the_files(self, tmp_path):
        # scipy's files are looked up next to scipy.__file__; point it at an
        # empty directory so neither compiled module is found
        probe = (f"import scipy; scipy.__file__ = {str(tmp_path / '__init__.py')!r}\n"
                 "from bayes_ssi import rng\n"
                 "print(rng._flapack.__name__, rng._ufuncs.__name__)\n" + SAME_AS_SCIPY)
        assert run_probe(probe) == ["scipy.linalg.lapack", "scipy.special"] + ["True"] * 8

    def test_falls_back_when_the_module_lacks_a_name(self):
        # multigammaln lives in scipy.special, not in its compiled module
        assert _scipy_extension("special", "_special_ufuncs", "scipy.special",
                                ("gammaln", "psi")) is rng_module._ufuncs
        assert _scipy_extension("special", "_special_ufuncs", "scipy.special",
                                ("gammaln", "multigammaln")) is scipy.special
