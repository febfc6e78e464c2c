#!/usr/bin/env python3
"""Unit tests for tools/apt_lint.py — the checker itself must be honest:
each rule fires on a minimal violation, stays quiet on the sanctioned
idioms, and respects the allow() escape hatch."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import apt_lint  # noqa: E402


def lint_snippet(code: str, path: str = "src/nn/example.cpp"):
    """Lints `code` as if it lived at `path` inside the repo."""
    with tempfile.TemporaryDirectory() as tmp:
        full = os.path.join(tmp, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as f:
            f.write(code)
        return apt_lint.check_file(full, path)


def rules_of(violations):
    return sorted(v.rule for v in violations)


class ThreadRule(unittest.TestCase):
    def test_flags_std_thread_async_and_omp(self):
        self.assertEqual(rules_of(lint_snippet("std::thread t(fn);")), ["thread"])
        self.assertEqual(rules_of(lint_snippet("auto f = std::async(fn);")), ["thread"])
        self.assertEqual(rules_of(lint_snippet("#pragma omp parallel for")), ["thread"])
        self.assertEqual(rules_of(lint_snippet("pthread_create(&t, 0, fn, 0);")), ["thread"])

    def test_thread_pool_files_are_exempt(self):
        self.assertEqual(
            lint_snippet("std::thread t(fn);", "src/base/thread_pool.cpp"), [])
        self.assertEqual(
            lint_snippet("std::vector<std::thread> workers_;",
                         "src/base/thread_pool.hpp"), [])

    def test_allow_hatch_same_line_and_previous_line(self):
        self.assertEqual(
            lint_snippet("auto f = std::async(fn);  // apt-lint: allow(thread)"), [])
        self.assertEqual(
            lint_snippet("// apt-lint: allow(thread)\nauto f = std::async(fn);"), [])

    def test_allow_of_other_rule_does_not_suppress(self):
        self.assertEqual(
            rules_of(lint_snippet("std::thread t(fn);  // apt-lint: allow(rng)")),
            ["thread"])

    def test_mention_in_comment_or_string_is_ignored(self):
        self.assertEqual(lint_snippet("// std::async spawns a thread per batch"), [])
        self.assertEqual(lint_snippet('const char* s = "std::thread";'), [])


class RngRule(unittest.TestCase):
    def test_flags_rand_srand_random_device_time_seed(self):
        self.assertEqual(rules_of(lint_snippet("int x = rand();")), ["rng"])
        self.assertEqual(rules_of(lint_snippet("srand(42);")), ["rng"])
        self.assertEqual(rules_of(lint_snippet("std::random_device rd;")), ["rng"])
        self.assertEqual(rules_of(lint_snippet("auto seed = time(nullptr);")), ["rng"])

    def test_counter_rng_is_fine(self):
        self.assertEqual(lint_snippet("Rng rng(42);\nrng.fill_uniform(t, 0, 1);"), [])
        # Identifiers merely containing 'rand' must not trip the rule.
        self.assertEqual(lint_snippet("float operand = 1.0f;\nexpand(operand);"), [])


class EngineRule(unittest.TestCase):
    def test_flags_stateful_engines(self):
        self.assertEqual(
            rules_of(lint_snippet("std::mt19937_64 eng(seed);")), ["engine"])
        self.assertEqual(
            rules_of(lint_snippet("std::mt19937 eng;")), ["engine"])
        self.assertEqual(
            rules_of(lint_snippet("std::default_random_engine e(1);")),
            ["engine"])
        self.assertEqual(
            rules_of(lint_snippet("std::minstd_rand lcg(7);")), ["engine"])

    def test_rng_home_is_exempt(self):
        self.assertEqual(
            lint_snippet("std::mt19937_64 engine_;", "src/base/rng.hpp"), [])

    def test_counter_stream_and_rng_wrapper_are_fine(self):
        self.assertEqual(
            lint_snippet("const uint32_t w = philox_u32(key, idx);\n"
                         "philox_fill_u32(key, base, n, words);\n"
                         "const uint64_t k = sr_mix_key(layer_key, step);"),
            [])
        self.assertEqual(lint_snippet("Rng rng(42);\nauto v = rng.uniform();"), [])

    def test_mention_in_comment_is_ignored(self):
        self.assertEqual(
            lint_snippet("// apt::Rng wraps std::mt19937_64 internally"), [])

    def test_allow_hatch(self):
        self.assertEqual(
            lint_snippet("std::mt19937 eng;  // apt-lint: allow(engine)"), [])


class ClockRule(unittest.TestCase):
    def test_flags_wall_clock_reads(self):
        self.assertEqual(
            rules_of(lint_snippet("auto t = std::chrono::steady_clock::now();")),
            ["clock"])
        self.assertEqual(rules_of(lint_snippet("gettimeofday(&tv, 0);")), ["clock"])
        self.assertEqual(rules_of(lint_snippet("auto c = clock();")), ["clock"])

    def test_member_named_clock_is_fine(self):
        self.assertEqual(lint_snippet("int x = cfg.clock;"), [])
        self.assertEqual(lint_snippet("hardware.clock_mhz = 800;"), [])


class AccumRule(unittest.TestCase):
    def test_flags_scalar_accumulation_into_capture(self):
        code = (
            "double sum = 0.0;\n"
            "pool.parallel_for(0, n, [&](int64_t b, int64_t e) {\n"
            "  for (int64_t i = b; i < e; ++i) sum += x[i];\n"
            "});\n"
        )
        self.assertEqual(rules_of(lint_snippet(code)), ["accum"])

    def test_flags_increment_of_capture(self):
        code = (
            "int hits = 0;\n"
            "shard_parallel(shards, [&](int s) {\n"
            "  if (ok(s)) ++hits;\n"
            "});\n"
        )
        self.assertEqual(rules_of(lint_snippet(code)), ["accum"])

    def test_subscripted_slot_writes_are_fine(self):
        code = (
            "pool.parallel_for_chunked(0, n, c, [&](int64_t c, int64_t b, int64_t e) {\n"
            "  for (int64_t i = b; i < e; ++i) partial[c] += x[i];\n"
            "});\n"
        )
        self.assertEqual(lint_snippet(code), [])

    def test_body_local_accumulator_is_fine(self):
        code = (
            "pool.parallel_for(0, n, [&](int64_t b, int64_t e) {\n"
            "  double acc = 0.0;\n"
            "  for (int64_t i = b; i < e; ++i) acc += x[i];\n"
            "  out[b] = acc;\n"
            "});\n"
        )
        self.assertEqual(lint_snippet(code), [])

    def test_multi_declarator_locals_are_fine(self):
        code = (
            "shard_parallel(shards, [&](int s) {\n"
            "  double dgamma = 0.0, dbeta = 0.0;\n"
            "  dgamma += f(s);\n"
            "  dbeta += g(s);\n"
            "  sums[s] = dgamma + dbeta;\n"
            "});\n"
        )
        self.assertEqual(lint_snippet(code), [])

    def test_loop_induction_variables_are_fine(self):
        code = (
            "pool.parallel_for(0, n, [&](int64_t b, int64_t e) {\n"
            "  for (int64_t i = b; i < e; ++i) out[i] = i;\n"
            "});\n"
        )
        self.assertEqual(lint_snippet(code), [])

    def test_accumulation_outside_dispatch_is_fine(self):
        self.assertEqual(lint_snippet("double total = 0.0;\ntotal += x;\n"), [])

    def test_allow_hatch(self):
        code = (
            "pool.parallel_for(0, n, [&](int64_t b, int64_t e) {\n"
            "  // guarded by a mutex documented at the call site\n"
            "  // apt-lint: allow(accum)\n"
            "  shared += e - b;\n"
            "});\n"
        )
        self.assertEqual(lint_snippet(code), [])


class RawioRule(unittest.TestCase):
    def test_flags_raw_writes(self):
        self.assertEqual(
            rules_of(lint_snippet('std::ofstream f(path, std::ios::binary);')),
            ["rawio"])
        self.assertEqual(
            rules_of(lint_snippet('std::fstream f(path, std::ios::out);')),
            ["rawio"])
        self.assertEqual(
            rules_of(lint_snippet('FILE* f = fopen(path, "wb");')), ["rawio"])
        self.assertEqual(
            rules_of(lint_snippet('freopen(path, "w", stdout);')), ["rawio"])
        self.assertEqual(
            rules_of(lint_snippet('fwrite(buf, 1, n, f);')), ["rawio"])

    def test_io_layer_is_exempt(self):
        for path in ("src/io/table.hpp", "src/io/atomic_file.cpp"):
            self.assertEqual(
                lint_snippet("std::ofstream f(path);", path), [])

    def test_reads_are_fine(self):
        self.assertEqual(lint_snippet("std::ifstream f(path);"), [])
        self.assertEqual(lint_snippet("fread(buf, 1, n, f);"), [])

    def test_suffixed_identifiers_do_not_trip(self):
        self.assertEqual(lint_snippet("my_fopen(path);"), [])
        self.assertEqual(lint_snippet("buffered_fwrite(buf);"), [])

    def test_mention_in_comment_is_ignored(self):
        self.assertEqual(
            lint_snippet("// std::ofstream would tear on crash here"), [])

    def test_allow_hatch(self):
        self.assertEqual(
            lint_snippet("std::ofstream f(p);  // apt-lint: allow(rawio)"),
            [])


class DocsyncRule(unittest.TestCase):
    BENCH = (
        '    } else if (arg == "--min-speedup") {\n'
        '      cfg.min_speedup = std::strtod(next().c_str(), nullptr);\n'
        '    } else if (arg == "--min-serve-speedup") {\n'
        '      cfg.min_serve_speedup = std::strtod(next().c_str(), nullptr);\n'
    )

    def docsync_of(self, bench: str | None, readme: str | None):
        with tempfile.TemporaryDirectory() as tmp:
            if bench is not None:
                os.makedirs(os.path.join(tmp, "bench"))
                with open(os.path.join(tmp, "bench", "bench_runner.cpp"), "w") as f:
                    f.write(bench)
            if readme is not None:
                with open(os.path.join(tmp, "README.md"), "w") as f:
                    f.write(readme)
            return apt_lint.check_docsync(tmp)

    def test_documented_flags_are_clean(self):
        readme = (
            "| key | flag |\n|---|---|\n"
            "| `gemm256_speedup_vs_scalar` | `--min-speedup` |\n"
            "| `serve_resnet8_qps_speedup_vs_serial` | `--min-serve-speedup` |\n"
        )
        self.assertEqual(self.docsync_of(self.BENCH, readme), [])

    def test_missing_flag_fires_with_flag_name_and_line(self):
        readme = "| key | flag |\n|---|---|\n| `x` | `--min-speedup` |\n"
        violations = self.docsync_of(self.BENCH, readme)
        self.assertEqual([v.rule for v in violations], ["docsync"])
        self.assertIn("--min-serve-speedup", violations[0].message)
        self.assertEqual(violations[0].line, 3)  # first defining line

    def test_prose_mention_outside_a_table_row_does_not_count(self):
        readme = "CI lowers --min-serve-speedup and --min-speedup on PRs.\n"
        violations = self.docsync_of(self.BENCH, readme)
        self.assertEqual(sorted(v.rule for v in violations),
                         ["docsync", "docsync"])

    def test_longer_flag_does_not_satisfy_its_prefix(self):
        bench = '    } else if (arg == "--min-train-speedup") {\n'
        readme = "| `k` | `--min-train-speedup-2t` |\n"
        violations = self.docsync_of(bench, readme)
        self.assertEqual([v.rule for v in violations], ["docsync"])
        self.assertIn("'--min-train-speedup'", violations[0].message)

    def test_tree_without_bench_runner_is_exempt(self):
        self.assertEqual(self.docsync_of(None, "| `--min-speedup` |\n"), [])

    def test_missing_readme_fires_for_every_flag(self):
        violations = self.docsync_of(self.BENCH, None)
        self.assertEqual(len(violations), 2)

    def test_real_tree_is_in_sync(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual(apt_lint.check_docsync(root), [])


class EnvDocsyncRule(unittest.TestCase):
    README = (
        "# x\n\n## Environment variables\n\n"
        "| Variable | Read by | Effect |\n|---|---|---|\n"
        "| `APT_SIMD` | library | caps the SIMD level |\n"
        "| `APT_BENCH_SCALE` | benches | `quick` or `full` |\n"
        "\n## Next section\n\n| `NOT_AN_ENV_ROW` | x |\n"
    )

    def env_of(self, files: dict, readme: str | None):
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in files.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(text)
            if readme is not None:
                with open(os.path.join(tmp, "README.md"), "w") as f:
                    f.write(readme)
            return apt_lint.check_env_vars(tmp)

    FILES = {
        "src/base/cpu.hpp": 'const char* e = std::getenv("APT_SIMD");\n',
        "bench/common.hpp": 'auto s = std::getenv( "APT_BENCH_SCALE" );\n',
    }

    def test_documented_reads_are_clean(self):
        # Backticked values in later columns and tables under other
        # headings are not rows of the environment table.
        self.assertEqual(self.env_of(self.FILES, self.README), [])

    def test_undocumented_read_fires_at_the_read(self):
        files = dict(self.FILES)
        files["examples/demo.cpp"] = (
            "int x;\nconst char* k = getenv(\"APT_NEW_KNOB\");\n")
        violations = self.env_of(files, self.README)
        self.assertEqual([v.rule for v in violations], ["docsync"])
        self.assertEqual(violations[0].path, os.path.join("examples", "demo.cpp"))
        self.assertEqual(violations[0].line, 2)
        self.assertIn("'APT_NEW_KNOB'", violations[0].message)

    def test_row_nothing_reads_fires_at_the_row(self):
        files = {"src/base/cpu.hpp": self.FILES["src/base/cpu.hpp"]}
        violations = self.env_of(files, self.README)
        self.assertEqual([v.rule for v in violations], ["docsync"])
        self.assertEqual(violations[0].path, "README.md")
        self.assertEqual(violations[0].line, 8)
        self.assertIn("'APT_BENCH_SCALE'", violations[0].message)

    def test_reads_outside_the_listed_dirs_do_not_count(self):
        files = dict(self.FILES)
        files["benchmark/src/main.cpp"] = 'getenv("APT_OTHER");\n'
        self.assertEqual(self.env_of(files, self.README), [])

    def test_missing_readme_fires_for_every_read(self):
        self.assertEqual(len(self.env_of(self.FILES, None)), 2)

    def test_real_tree_is_in_sync(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.assertEqual(apt_lint.check_env_vars(root), [])


class Plumbing(unittest.TestCase):
    def test_collect_sources_finds_cpp_and_hpp(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src", "nn"))
            for name in ("a.cpp", "b.hpp", "ignored.txt"):
                with open(os.path.join(tmp, "src", "nn", name), "w") as f:
                    f.write("int x;\n")
            found = apt_lint.collect_sources(tmp)
            self.assertEqual(sorted(os.path.basename(p) for p in found),
                             ["a.cpp", "b.hpp"])

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            clean = os.path.join(tmp, "src", "clean.cpp")
            with open(clean, "w") as f:
                f.write("int x = 0;\n")
            self.assertEqual(apt_lint.main(["--root", tmp]), 0)
            dirty = os.path.join(tmp, "src", "dirty.cpp")
            with open(dirty, "w") as f:
                f.write("std::thread t(fn);\n")
            self.assertEqual(apt_lint.main(["--root", tmp]), 1)

    def test_real_tree_is_clean(self):
        # The repo itself must satisfy its own lint (the CI job asserts
        # this too; keeping it here makes the self-test catch regressions
        # without the CI round-trip).
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        violations = []
        for path in apt_lint.collect_sources(root):
            violations.extend(apt_lint.check_file(path, os.path.relpath(path, root)))
        self.assertEqual(violations, [])


if __name__ == "__main__":
    unittest.main()
