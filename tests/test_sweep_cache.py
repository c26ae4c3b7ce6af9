"""Result-cache behaviour: keying, hits, misses, invalidation, bypass.

The contract under test (docs/performance.md): a cache hit returns a
*bit-identical* result (``==`` on the dataclass, never approx); the key
covers the whole spec — config, seed, fault plan — plus the code
fingerprint; ``--no-cache`` touches the cache directory not at all.
"""

import json
from pathlib import Path

import pytest

from repro.config import ClusterConfig
from repro.faults import FaultConfig, FaultPlan, Straggler
from repro.sweep import (
    ChaosSpec,
    PointSpec,
    ResultCache,
    canonical,
    code_fingerprint,
    default_cache_dir,
)
from repro.sweep.engine import run_sweep
from repro.units import MiB


def _spec(n_clients=2, accesses=8, seed=0x5EED, method="list"):
    cfg = ClusterConfig.chiba_city(n_clients=n_clients).with_(seed=seed)
    return PointSpec(
        figure="figT",
        pattern="one_dim_cyclic",
        pattern_args=(1 * MiB, n_clients, accesses),
        method=method,
        kind="read",
        mode="des",
        cfg=cfg,
        x=accesses,
    )


class TestCanonical:
    def test_dataclasses_are_stable_and_typed(self):
        cfg = ClusterConfig.chiba_city(n_clients=2)
        a, b = canonical(cfg), canonical(cfg)
        assert a == b
        assert a["__type__"] == "ClusterConfig"
        # embedded fault plan participates in the canonical form
        assert "faults" in a

    def test_specs_serialize_to_json(self):
        blob = json.dumps(canonical(_spec()), sort_keys=True)
        assert "one_dim_cyclic" in blob

    def test_unserializable_objects_are_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            canonical(object())


class TestFingerprint:
    def test_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_tracks_file_contents_and_names(self, tmp_path):
        from repro.sweep import fingerprint as fp_mod

        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        fp1 = code_fingerprint(str(pkg))
        (pkg / "a.py").write_text("x = 2\n")
        fp_mod._cached.clear()
        fp2 = code_fingerprint(str(pkg))
        assert fp1 != fp2
        (pkg / "a.py").write_text("x = 1\n")
        fp_mod._cached.clear()
        assert code_fingerprint(str(pkg)) == fp1


class TestCacheKeying:
    def test_hit_on_identical_config(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        point = spec.run()
        cache.put(spec, point)
        back = cache.get(_spec())  # a *fresh* but identical spec
        assert back == point  # bit-identical dataclass equality

    def test_miss_on_config_change(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, spec.run())
        assert cache.get(_spec(seed=123)) is None
        assert cache.get(_spec(accesses=16)) is None
        assert cache.get(_spec(method="multiple")) is None

    def test_fault_plan_participates_in_the_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, spec.run())
        faulty = ClusterConfig.chiba_city(n_clients=2).with_(
            faults=FaultConfig(plan=FaultPlan((Straggler(iod=0, scale=4.0),)))
        )
        faulty_spec = PointSpec(
            figure="figT",
            pattern="one_dim_cyclic",
            pattern_args=(1 * MiB, 2, 8),
            method="list",
            kind="read",
            mode="des",
            cfg=faulty,
            x=8,
        )
        assert cache.get(faulty_spec) is None

    def test_code_fingerprint_change_invalidates(self, tmp_path):
        spec = _spec()
        old = ResultCache(str(tmp_path), fingerprint="code-v1")
        old.put(spec, spec.run())
        assert old.get(spec) is not None
        stale = ResultCache(str(tmp_path), fingerprint="code-v2")
        assert stale.get(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        cache.put(spec, spec.run())
        entry = next(tmp_path.glob("*/*.json"))
        entry.write_text("{not json")
        assert cache.get(spec) is None


class TestCacheRoundtrip:
    def test_floats_survive_exactly(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = _spec()
        point = spec.run()
        cache.put(spec, point)
        back = cache.get(spec)
        assert back.elapsed == point.elapsed  # exact, not approx
        assert back.phases == point.phases
        assert back == point

    def test_chaos_rows_roundtrip_with_events(self, tmp_path):
        from repro.experiments.presets import SMOKE

        cache = ResultCache(str(tmp_path))
        spec = ChaosSpec(scenario="straggler", benchmark="artificial", scale=SMOKE)
        row = spec.run()
        cache.put(spec, row)
        back = cache.get(spec)
        assert back == row
        assert back.events == row.events


class TestNoCacheBypass:
    def test_engine_without_cache_recomputes(self, tmp_path):
        specs = [_spec(accesses=a) for a in (4, 8)]
        results1, stats1 = run_sweep(specs, cache=None)
        results2, stats2 = run_sweep(specs, cache=None)
        assert results1 == results2
        assert stats1.executed == stats2.executed == 2
        assert stats1.cache_hits == 0 and not stats1.cache_enabled

    def test_cli_no_cache_leaves_directory_untouched(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cache_dir = tmp_path / "cache"
        rc = main(
            [
                "--figure",
                "17",
                "--scale",
                "smoke",
                "--mode",
                "des",
                "--no-cache",
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert rc in (0, 1)  # figure checks may fail at smoke scale
        assert not cache_dir.exists()
        assert "cache off" in capsys.readouterr().out

    def test_cli_cache_dir_populates_and_hits(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cache_dir = tmp_path / "cache"
        args = [
            "--figure",
            "17",
            "--scale",
            "smoke",
            "--mode",
            "des",
            "--cache-dir",
            str(cache_dir),
        ]
        main(args)
        first = capsys.readouterr().out
        assert "0/3 cached" in first
        assert len(list(cache_dir.glob("*/*.json"))) == 3
        main(args)
        second = capsys.readouterr().out
        assert "3/3 cached" in second


class TestSuiteCacheIsolation:
    def test_default_cache_dir_is_a_session_temporary(self, tmp_path_factory):
        # CLI tests run without --cache-dir; conftest.py must have pointed
        # the default at this session's temporary tree, not ~/.cache.
        cache = Path(default_cache_dir()).resolve()
        assert cache.is_relative_to(tmp_path_factory.getbasetemp().resolve())
