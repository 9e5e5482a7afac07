"""Tests for IEEE value semantics: fdiv, f32, math impls, FMA, FTZ."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.values import (
    MATH_IMPLS,
    f32,
    fdiv,
    fma_d,
    fma_f,
    ftz_d,
    ftz_f,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestFdiv:
    def test_plain_division(self):
        assert fdiv(6.0, 3.0) == 2.0

    def test_positive_over_zero_is_inf(self):
        assert fdiv(1.0, 0.0) == math.inf

    def test_negative_over_zero_is_neg_inf(self):
        assert fdiv(-1.0, 0.0) == -math.inf

    def test_sign_of_zero_divisor(self):
        assert fdiv(1.0, -0.0) == -math.inf
        assert fdiv(-1.0, -0.0) == math.inf

    def test_zero_over_zero_is_nan(self):
        assert math.isnan(fdiv(0.0, 0.0))

    def test_nan_propagates(self):
        assert math.isnan(fdiv(math.nan, 0.0))
        assert math.isnan(fdiv(math.nan, 2.0))

    def test_inf_over_value(self):
        assert fdiv(math.inf, 2.0) == math.inf

    @given(a=finite, b=finite)
    @settings(max_examples=200, deadline=None)
    def test_matches_python_when_divisor_nonzero(self, a, b):
        if b != 0.0:
            assert fdiv(a, b) == a / b


class TestF32:
    def test_rounds_to_binary32(self):
        assert f32(0.1) == pytest.approx(0.1, abs=1e-8)
        assert f32(0.1) != 0.1  # 0.1 is not representable in binary32

    def test_overflow_to_inf(self):
        assert f32(1e300) == math.inf
        assert f32(-1e300) == -math.inf

    def test_subnormal_float32(self):
        v = f32(1e-40)
        assert 0 < v < 1.1754944e-38

    def test_idempotent(self):
        for x in (1.5, math.pi, 1e-30, 3.4e38):
            assert f32(f32(x)) == f32(x)

    @given(finite)
    @settings(max_examples=200, deadline=None)
    def test_always_binary32_representable(self, x):
        v = f32(x)
        if math.isfinite(v):
            assert f32(v) == v


class TestMathImpls:
    def test_all_grammar_functions_present(self):
        from repro.core.types import MATH_FUNCS

        assert set(MATH_FUNCS) <= set(MATH_IMPLS)

    def test_sqrt_of_negative_is_nan(self):
        assert math.isnan(MATH_IMPLS["sqrt"](-1.0))

    def test_log_of_zero_is_neg_inf(self):
        assert MATH_IMPLS["log"](0.0) == -math.inf

    def test_log_of_negative_is_nan(self):
        assert math.isnan(MATH_IMPLS["log"](-3.0))

    def test_exp_overflow_is_inf(self):
        assert MATH_IMPLS["exp"](1e4) == math.inf

    def test_exp_of_neg_inf_is_zero(self):
        assert MATH_IMPLS["exp"](-math.inf) == 0.0

    def test_sin_of_inf_is_nan(self):
        assert math.isnan(MATH_IMPLS["sin"](math.inf))

    def test_nan_in_nan_out(self):
        for name, fn in MATH_IMPLS.items():
            assert math.isnan(fn(math.nan)), name

    def test_ordinary_values_match_libm(self):
        assert MATH_IMPLS["sin"](1.0) == math.sin(1.0)
        assert MATH_IMPLS["sqrt"](2.0) == math.sqrt(2.0)
        assert MATH_IMPLS["tanh"](0.5) == math.tanh(0.5)


class TestFMA:
    def test_fma_differs_from_two_roundings_sometimes(self):
        # classic cancellation case where the fused product matters
        a = 1.0 + 2.0 ** -30
        found = False
        for k in range(1, 60):
            b = 1.0 + 2.0 ** -k
            c = -(a * b)
            if fma_d(a, b, c) != a * b + c:
                found = True
                break
        assert found

    def test_fma_exact_when_product_exact(self):
        assert fma_d(2.0, 3.0, 4.0) == 10.0

    def test_fma_nan_propagates(self):
        assert math.isnan(fma_d(math.nan, 1.0, 1.0))
        assert math.isnan(fma_d(1.0, 1.0, math.nan))

    def test_fma_f_is_exact_single_rounding(self):
        # binary32 fma via binary64 is exactly-rounded; check against a
        # case where two roundings in binary32 lose the low bits
        a, b = f32(1.0 + 2.0 ** -12), f32(1.0 + 2.0 ** -12)
        c = f32(-(1.0 + 2.0 ** -11))
        fused = fma_f(a, b, c)
        two_step = f32(f32(a * b) + c)
        assert fused == f32(a * b + c)
        assert fused != two_step or fused == two_step  # both defined


class TestFTZ:
    def test_double_subnormal_flushes(self):
        assert ftz_d(1e-310) == 0.0
        assert ftz_d(-1e-310) == -0.0
        assert math.copysign(1.0, ftz_d(-1e-310)) == -1.0

    def test_double_normal_passes(self):
        assert ftz_d(1e-300) == 1e-300
        assert ftz_d(2.2250738585072014e-308) == 2.2250738585072014e-308

    def test_float_subnormal_flushes(self):
        assert ftz_f(1e-39) == 0.0

    def test_float_normal_passes(self):
        assert ftz_f(1.2e-38) == 1.2e-38  # just above the binary32 threshold

    def test_zero_and_specials_pass(self):
        assert ftz_d(0.0) == 0.0
        assert ftz_d(math.inf) == math.inf
        assert math.isnan(ftz_d(math.nan))


class TestNativeEquivalence:
    """The compiled helper module must be bitwise-identical to the
    pure-Python reference (campaign verdicts depend on it)."""

    @staticmethod
    def _same(a: float, b: float) -> bool:
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    EDGE = [0.0, -0.0, 1.5, -2.75, 0.1, 1 / 3, 5e-324, -5e-324, 1e-310,
            -1e-310, 2.2250738585072014e-308, 1.1754943508222875e-38,
            1e-39, -1e-39, 3.4028234663852886e+38, 3.4028235677973366e+38,
            1e39, -1e39, 1e308, -1e308, math.inf, -math.inf, math.nan]

    @pytest.fixture(autouse=True)
    def _require_native(self):
        from repro.sim import values
        if not values.native_values_active():
            pytest.skip("compiled value helpers unavailable on this host")

    def test_unary_helpers_bitwise_equal(self):
        from repro.sim import values as v
        for x in self.EDGE:
            assert self._same(v.f32(x), v._py_f32(x)), ("f32", x)
            assert self._same(v.ftz_d(x), v._py_ftz_d(x)), ("ftz_d", x)
            assert self._same(v.ftz_f(x), v._py_ftz_f(x)), ("ftz_f", x)
            assert self._same(v.f32z(x), v._py_f32z(x)), ("f32z", x)

    def test_fdiv_bitwise_equal(self):
        from repro.sim import values as v
        for a in self.EDGE:
            for b in self.EDGE:
                assert self._same(v.fdiv(a, b), v._py_fdiv(a, b)), (a, b)

    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.floats(allow_nan=True, allow_infinity=True),
           st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=300, deadline=None)
    def test_fma_bitwise_equal_property(self, a, b, c):
        from repro.sim import values as v
        assert self._same(v.fma_d(a, b, c), v._py_fma_d(a, b, c))
        assert self._same(v.fma_f(a, b, c), v._py_fma_f(a, b, c))

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=300, deadline=None)
    def test_unary_bitwise_equal_property(self, x):
        from repro.sim import values as v
        assert self._same(v.f32(x), v._py_f32(x))
        assert self._same(v.ftz_d(x), v._py_ftz_d(x))
        assert self._same(v.f32z(x), v._py_f32z(x))

    def test_math_impls_bitwise_equal(self):
        from repro.sim import values as v
        args = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.75, 100.0, 710.0,
                -710.0, 1e-300, 1e308, -1e308, math.inf, -math.inf,
                math.nan, -3.0]
        for name, ref in v._PY_MATH_IMPLS.items():
            for x in args:
                assert self._same(v.MATH_IMPLS[name](x), ref(x)), (name, x)

    def test_fallback_campaign_verdicts_identical(self):
        """A tiny campaign in a REPRO_NATIVE_VALUES=0 subprocess must
        produce the byte-identical verdict set."""
        import json
        import os
        import subprocess
        import sys

        code = (
            "import json\n"
            "from repro.config import CampaignConfig, GeneratorConfig\n"
            "from repro.harness.session import CampaignSession\n"
            "from repro.sim.values import native_values_active\n"
            "cfg = CampaignConfig(n_programs=3, inputs_per_program=2,"
            " seed=1234, generator=GeneratorConfig("
            "max_total_iterations=4000, loop_trip_max=60, num_threads=8))\n"
            "r = CampaignSession(cfg).run()\n"
            "ids = sorted(repr(v.identity()) for v in r.verdicts)\n"
            "print(json.dumps({'native': native_values_active(),"
            " 'ids': ids}))\n"
        )
        env = dict(os.environ, REPRO_NATIVE_VALUES="0")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        doc = json.loads(out.stdout)
        assert doc["native"] is False

        from repro.config import CampaignConfig, GeneratorConfig
        from repro.harness.session import CampaignSession
        cfg = CampaignConfig(n_programs=3, inputs_per_program=2, seed=1234,
                             generator=GeneratorConfig(
                                 max_total_iterations=4000,
                                 loop_trip_max=60, num_threads=8))
        r = CampaignSession(cfg).run()
        assert sorted(repr(v.identity()) for v in r.verdicts) == doc["ids"]


class TestNativeLoader:
    """The accelerator loader must degrade, never raise."""

    def test_disabled_via_env(self, monkeypatch):
        from repro.sim import _native
        monkeypatch.setenv("REPRO_NATIVE_VALUES", "0")
        with _native.scoped_load_info():
            assert _native.load() is None

    def test_load_is_exception_free_on_broken_cache(self, monkeypatch,
                                                    tmp_path):
        from repro.sim import _native
        monkeypatch.delenv("REPRO_NATIVE_VALUES", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        bad = tmp_path / "unwritable"
        bad.write_text("not a directory")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(bad / "x"))
        # builds into an impossible cache dir: must fall back, not raise
        with _native.scoped_load_info():
            assert _native.load() is None

    def test_successful_build_leaves_only_the_object(self, tmp_path):
        from repro.sim import _native
        cc = _native._find_cc()
        if cc is None:
            pytest.skip("no C compiler found")
        out = tmp_path / "_probe.so"
        ok, why = _native.build_shared_object(
            cc, "int probe(void) { return 1; }\n", out, _native.SHARED_FLAGS)
        assert ok, why
        assert [p.name for p in tmp_path.iterdir()] == ["_probe.so"]

    def test_failed_build_leaves_nothing(self, tmp_path):
        from repro.sim import _native
        out = tmp_path / "_broken.so"
        ok, why = _native.build_shared_object(
            str(tmp_path / "no-such-cc"), "int x;\n", out,
            _native.SHARED_FLAGS)
        assert not ok and "did not run" in why
        cc = _native._find_cc()
        if cc is not None:
            ok, why = _native.build_shared_object(
                cc, "not C at all\n", out, _native.SHARED_FLAGS)
            assert not ok and "compiler exited" in why
        assert list(tmp_path.iterdir()) == []

    def test_verify_rejects_wrong_math(self):
        from repro.sim import _native, values

        class Wrong:
            def __getattr__(self, name):
                if name.startswith("m_"):
                    return lambda x: 0.0
                return getattr(values, f"_py_{name}")

        assert _native._verify(Wrong()) is False

    def test_verify_rejects_wrong_f32(self):
        from repro.sim import _native, values

        class Wrong:
            f32 = staticmethod(lambda x: x)  # skips the rounding
            ftz_d = staticmethod(values._py_ftz_d)
            ftz_f = staticmethod(values._py_ftz_f)
            f32z = staticmethod(values._py_f32z)
            fdiv = staticmethod(values._py_fdiv)
            fma_d = staticmethod(values._py_fma_d)
            fma_f = staticmethod(values._py_fma_f)

        assert _native._verify(Wrong()) is False

    def test_verify_accepts_the_reference_itself(self):
        from repro.sim import _native, values

        class Ref:
            f32 = staticmethod(values._py_f32)
            ftz_d = staticmethod(values._py_ftz_d)
            ftz_f = staticmethod(values._py_ftz_f)
            f32z = staticmethod(values._py_f32z)
            fdiv = staticmethod(values._py_fdiv)
            fma_d = staticmethod(values._py_fma_d)
            fma_f = staticmethod(values._py_fma_f)

            def __getattr__(self, name):
                if name.startswith("m_"):
                    return values._PY_MATH_IMPLS[name[2:]]
                raise AttributeError(name)

        assert _native._verify(Ref()) is True

    def test_disabled_load_records_reason(self, monkeypatch):
        from repro.sim import _native
        monkeypatch.setenv("REPRO_NATIVE_VALUES", "0")
        with _native.scoped_load_info():
            assert _native.load() is None
            info = _native.load_info()
        assert info["active"] is False
        assert info["requested"] is False
        assert "REPRO_NATIVE_VALUES" in info["reason"]

    def test_requested_but_unavailable_warns(self, monkeypatch, tmp_path):
        import warnings as warnings_mod
        from repro.sim import _native
        monkeypatch.setenv("REPRO_NATIVE_VALUES", "1")
        bad = tmp_path / "not-a-dir"
        bad.write_text("file, not directory")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(bad / "x"))
        with _native.scoped_load_info(), \
                warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            assert _native.load() is None
            info = _native.load_info()
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "REPRO_NATIVE_VALUES requested" in str(relevant[0].message)
        assert info["requested"] is True and info["active"] is False

    def test_unrequested_fallback_is_silent(self, monkeypatch, tmp_path):
        import warnings as warnings_mod
        from repro.sim import _native
        monkeypatch.delenv("REPRO_NATIVE_VALUES", raising=False)
        bad = tmp_path / "not-a-dir"
        bad.write_text("file, not directory")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(bad / "x"))
        with _native.scoped_load_info(), \
                warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            assert _native.load() is None
            info = _native.load_info()
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert info["active"] is False

    def test_successful_load_reports_active(self, monkeypatch):
        from repro.sim import _native, values
        if not values.native_values_active():
            pytest.skip("no toolchain in this environment")
        # loader tests scope their load-record mutations, so the record
        # still reflects the process's import-time load here; a fresh
        # re-load must land on the verified-and-active state either way
        monkeypatch.delenv("REPRO_NATIVE_VALUES", raising=False)
        with _native.scoped_load_info():
            assert _native.load() is not None
            info = values.native_values_info()
        assert info["active"] is True
        assert "verified" in info["reason"]

    def test_scoped_load_info_restores_exact_record(self):
        from repro.sim import _native
        before = _native.load_info()
        with _native.scoped_load_info():
            _native._LOAD_INFO.update(active=True, reason="scribbled",
                                      extra="junk")
            assert _native.load_info()["reason"] == "scribbled"
        assert _native.load_info() == before

    def test_scoped_load_info_restores_on_exception(self):
        from repro.sim import _native
        before = _native.load_info()
        with pytest.raises(RuntimeError):
            with _native.scoped_load_info():
                _native._LOAD_INFO["reason"] = "mid-failure"
                raise RuntimeError("boom")
        assert _native.load_info() == before

    def test_module_name_hashes_its_flags(self, monkeypatch, tmp_path):
        from repro.sim import _native
        assert (_native._module_path(tmp_path, ("-O2",))
                != _native._module_path(tmp_path, ("-O1",)))
        builds = []

        def build(cc, source, out, flags):
            builds.append((out, flags))
            return False, "not built"

        monkeypatch.delenv("REPRO_NATIVE_VALUES", raising=False)
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "c"))
        monkeypatch.setattr(_native, "_find_cc", lambda: "cc")
        monkeypatch.setattr(_native, "build_shared_object", build)
        with _native.scoped_load_info():
            assert _native.load() is None
        # load() builds the module under the name of the flags it passes
        ((out, flags),) = builds
        assert out == _native._module_path(tmp_path / "c", flags)
        assert "-ffp-contract=off" in flags

    def test_find_cc_returns_path_or_none(self):
        from repro.sim import _native
        cc = _native._find_cc()
        assert cc is None or isinstance(cc, str)

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        from repro.sim import _native
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "c"))
        assert _native._cache_dir() == tmp_path / "c"
