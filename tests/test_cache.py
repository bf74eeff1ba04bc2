"""The content-addressed cure cache: keys, invalidation, recovery.

The cache's contract has three legs — correctness (a hit is
byte-identical to a fresh cure), self-invalidation (any input that
could change the cure changes the key), and robustness (corrupt or
stale entries fall back to a fresh cure, never crash).  Each leg is
pinned here.
"""

import os
import pickle

import pytest

from repro.bench.harness import clear_program_cache, pristine_cure, \
    pristine_parse
from repro.cache import (CACHE_SCHEMA, canonical_options, cure_key,
                         get_cache, parse_key)
from repro.core import CureOptions
from repro.workloads import get

W = "olden_power"


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A cold cache in a private directory, plus cold in-process
    caches, so every test starts from zero counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_program_cache()
    yield get_cache()
    clear_program_cache()


# -- keys --------------------------------------------------------------------


def test_key_changes_with_source_text():
    a = cure_key("int main(void){return 0;}", (), "p",
                 canonical_options(None))
    b = cure_key("int main(void){return 1;}", (), "p",
                 canonical_options(None))
    assert a != b
    assert parse_key("x", (), "p") != parse_key("y", (), "p")


def test_key_changes_with_suppressions_and_name():
    opts = canonical_options(None)
    src = "int main(void){return 0;}"
    assert cure_key(src, (), "p", opts) \
        != cure_key(src, (("p.c", 3),), "p", opts)
    assert parse_key(src, (), "p") != parse_key(src, (), "q")


def test_key_changes_with_options():
    src = "int main(void){return 0;}"
    flow = canonical_options(CureOptions(optimize="flow"))
    none = canonical_options(CureOptions(optimize="none"))
    trust = canonical_options(None, trust_bad_casts=True)
    keys = {cure_key(src, (), "p", o) for o in (flow, none, trust)}
    assert len(keys) == 3


def test_key_changes_with_schema():
    src = "int main(void){return 0;}"
    opts = canonical_options(None)
    assert cure_key(src, (), "p", opts) \
        != cure_key(src, (), "p", opts, schema=CACHE_SCHEMA + "-next")
    assert parse_key(src, (), "p") \
        != parse_key(src, (), "p", schema=CACHE_SCHEMA + "-next")


def test_options_key_canonicalizes_optimize_aliases():
    # optimize/optimize_checks fold into one canonical level entry:
    # the historical spelling and the level spelling share a key.
    assert canonical_options(CureOptions(optimize_checks=False)) \
        == canonical_options(CureOptions(optimize="none"))


# -- hits are byte-identical -------------------------------------------------


def test_warm_hit_reproduces_cure_byte_identically(fresh_cache):
    w = get(W)
    cold = pristine_cure(w)
    cold_c = cold.to_c()
    cold_report = cold.report()
    clear_program_cache()          # force the disk path
    warm = pristine_cure(w)
    assert fresh_cache.session.hits >= 1
    assert warm.to_c() == cold_c
    assert warm.report() == cold_report


def test_warm_hit_reproduces_metrics_byte_identically(fresh_cache):
    from repro.obs.metrics import collect_workload_metrics
    from repro.obs.serialize import stable_dumps
    w = get(W)
    cold = stable_dumps(collect_workload_metrics(w).to_json())
    clear_program_cache()
    warm = stable_dumps(collect_workload_metrics(w).to_json())
    assert warm == cold


# -- counters ----------------------------------------------------------------


def test_deterministic_counter_sequence(fresh_cache):
    w = get(W)
    pristine_parse(w)
    pristine_cure(w)
    s = fresh_cache.stats()
    # cold: one parse miss+store, one cure miss+store
    assert (s.hits, s.misses, s.stores) == (0, 2, 2)
    clear_program_cache()
    pristine_cure(w)               # warm: cure hit, no parse needed
    s = fresh_cache.stats()
    assert (s.hits, s.misses, s.stores) == (1, 2, 2)
    assert s.entries == 2
    assert s.bytes > 0


def test_cache_clear_resets_everything(fresh_cache):
    w = get(W)
    pristine_cure(w)
    assert fresh_cache.stats().entries == 2
    removed = fresh_cache.clear()
    assert removed == 2
    s = fresh_cache.stats()
    assert (s.entries, s.hits, s.misses, s.stores) == (0, 0, 0, 0)


# -- the in-process memo ----------------------------------------------------


def test_parse_miss_preprocesses_once(fresh_cache, monkeypatch):
    from repro.cpp.preprocessor import Preprocessor
    real = Preprocessor.preprocess
    calls = []

    def counting(self, source, filename="<input>"):
        if filename == W + ".c":      # not the recursive #include calls
            calls.append(filename)
        return real(self, source, filename)

    monkeypatch.setattr(Preprocessor, "preprocess", counting)
    pristine_parse(get(W))
    assert calls == [W + ".c"]
    assert fresh_cache.session.stores == 1


def test_equivalent_options_share_one_tree_and_one_measurement(
        fresh_cache, monkeypatch):
    import repro.bench.harness as harness
    w = get("bind_like")              # its defaults trust bad casts
    spelled = CureOptions(trust_bad_casts=w.trust_bad_casts)
    assert pristine_cure(w) is pristine_cure(w, spelled)
    runs = []
    real = harness.run_cured
    monkeypatch.setattr(harness, "run_cured",
                        lambda *a, **kw: runs.append(1) or real(*a, **kw))
    first = harness.run_workload(w)
    second = harness.run_workload(w, options=spelled)
    assert len(runs) == 1
    assert second.ccured == first.ccured


def test_memo_without_disk_tier(tmp_path, monkeypatch):
    w = get(W)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CACHE", "off")
    clear_program_cache()
    off = pristine_cure(w)
    assert pristine_cure(w) is off
    assert pristine_parse(w) is pristine_parse(w)
    monkeypatch.delenv("REPRO_CACHE")
    clear_program_cache()
    cached = pristine_cure(w)
    assert cached is not off
    assert cached.to_c() == off.to_c()
    clear_program_cache()


def test_curing_a_private_copy_leaves_the_pristine_parse(fresh_cache):
    from repro.cache import private_copy
    from repro.cil.printer import program_to_c
    from repro.core import cure
    prog = pristine_parse(get(W))
    before = program_to_c(prog)
    cured = cure(private_copy(prog), name=W)
    assert cured.prog is not prog
    assert program_to_c(prog) == before
    assert cured.to_c() == pristine_cure(get(W)).to_c()


# -- robustness --------------------------------------------------------------


def test_corrupt_entry_recovers_with_fresh_cure(fresh_cache):
    w = get(W)
    cold_c = pristine_cure(w).to_c()
    # truncate every stored entry to simulate a torn write
    for dirpath, _dirs, files in os.walk(fresh_cache.root):
        for fn in files:
            if fn.endswith(".pkl"):
                with open(os.path.join(dirpath, fn), "wb") as f:
                    f.write(b"\x80corrupt")
    clear_program_cache()
    warm = pristine_cure(w)        # must fall back, not crash
    assert warm.to_c() == cold_c
    assert fresh_cache.session.invalidated >= 1
    # the corrupt entries were dropped and re-stored
    assert fresh_cache.stats().entries == 2


def test_stale_payload_version_is_invalidated(fresh_cache):
    w = get(W)
    pristine_cure(w)
    for dirpath, _dirs, files in os.walk(fresh_cache.root):
        for fn in files:
            if not fn.endswith(".pkl"):
                continue
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as f:
                payload = pickle.load(f)
            payload["version"] = -1
            with open(path, "wb") as f:
                pickle.dump(payload, f)
    clear_program_cache()
    assert pristine_cure(w).to_c()          # falls back cleanly
    assert fresh_cache.session.invalidated >= 1


def test_disabled_cache_stores_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "off"))
    monkeypatch.setenv("REPRO_CACHE", "off")
    clear_program_cache()
    disk = get_cache()
    assert not disk.enabled
    pristine_cure(get(W))
    assert not os.path.exists(os.path.join(str(tmp_path / "off"),
                                           "objects"))
    s = disk.stats()
    assert (s.hits, s.misses, s.stores) == (0, 0, 0)
    clear_program_cache()


def test_store_survives_unpicklable_value(fresh_cache):
    ok = fresh_cache.store("00" * 32, lambda: None)
    assert ok is False             # declined, not crashed
    assert fresh_cache.load("00" * 32) is None


# -- concurrency -------------------------------------------------------------


def test_concurrent_writers_race_benignly(fresh_cache):
    # Two pool workers cure the same workload at the same time; both
    # write the same content address, the last rename wins, and the
    # entry remains loadable and correct.
    from repro.sweep import run_sharded
    tasks = [("lint", {"name": W, "optimize": "flow", "scale": None})
             for _ in range(2)]
    a, b = run_sharded(tasks, 2)
    assert a.to_json() == b.to_json()
    clear_program_cache()
    assert pristine_cure(get(W)).to_c()
    s = fresh_cache.stats()
    # parse + the lint cure (provenance on) + the default cure
    assert s.entries == 3
    assert s.stores >= 3


def test_hit_rate_pct(fresh_cache):
    from repro.cache.store import CacheStats
    assert CacheStats().hit_rate_pct is None        # never asked
    assert CacheStats(hits=3, misses=1).hit_rate_pct == 75.0
    assert CacheStats(hits=0, misses=4).hit_rate_pct == 0.0
    s = CacheStats(hits=1, misses=2)
    assert s.to_json()["hit_rate_pct"] == s.hit_rate_pct


def test_cli_cache_stats_reports_hit_rate(fresh_cache, capsys):
    import json as _json

    from repro.cli import main
    w = get("olden_power")
    pristine_cure(w)                                 # miss + store
    clear_program_cache()
    pristine_cure(w)                                 # hit
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out and "cross-process" in out
    assert "session" in out
    assert main(["cache", "stats", "--json", "-"]) == 0
    payload = _json.loads(capsys.readouterr().out)
    assert payload["hit_rate_pct"] is not None
    assert 0.0 <= payload["hit_rate_pct"] <= 100.0
    assert payload["session"]["hit_rate_pct"] is None \
        or 0.0 <= payload["session"]["hit_rate_pct"] <= 100.0


def test_loaded_tree_keeps_its_ids_unique(fresh_cache, monkeypatch):
    """Variables, structs and enums are numbered by per-process
    counters.  A process that loads a tree numbered elsewhere must
    number what it makes next (a grafted fault fragment) past every id
    of the tree, or a new variable or struct shares an id with an old
    one and the two are confused."""
    from repro.cil import CompInfo, EnumInfo, GCompTag, GEnumTag, \
        Varinfo, int_t
    from repro.frontend import parse_program
    prog = parse_program(
        "enum color { RED, GREEN };\n"
        "struct pt { int x; int y; };\n"
        "struct pt g;\n"
        "int main(void) { struct pt p; enum color c = GREEN;\n"
        "  p.x = c; g = p; return p.x; }\n", "ids")
    assert fresh_cache.store("ids", prog)
    # a fresh process: every counter starts from zero
    for cls, attr in ((Varinfo, "_next_id"), (CompInfo, "_next_key"),
                      (EnumInfo, "_next_key")):
        monkeypatch.setattr(cls, attr, 0)
    got = fresh_cache.load("ids")
    vids = {g.var.vid for g in got.globals if hasattr(g, "var")}
    for fd in got.functions.values():
        vids |= {v.vid for v in fd.formals + fd.locals}
    comps = {g.comp.key for g in got.globals if isinstance(g, GCompTag)}
    enums = {g.enuminfo.key for g in got.globals
             if isinstance(g, GEnumTag)}
    assert vids and comps and enums
    assert Varinfo("fresh", int_t).vid > max(vids)
    assert CompInfo(True, "fresh").key > max(comps)
    assert EnumInfo("fresh").key > max(enums)
