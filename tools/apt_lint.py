#!/usr/bin/env python3
"""apt_lint — project-specific concurrency/determinism lint for apt.

Enforces repository invariants that clang-tidy cannot express. All rules
apply to library code under src/ only (tests, benches, and examples may
time things and spawn helpers as they see fit):

  thread  No raw threading primitives (std::thread / std::jthread /
          std::async, OpenMP pragmas, pthread_create) outside
          src/base/thread_pool.*. All library concurrency must go through
          the ThreadPool so the determinism contract (chunk
          decompositions fixed by the range, never by the machine) holds
          everywhere.

  rng     No non-deterministic or non-counter RNG: rand()/srand(),
          std::random_device, and time()/clock()-style seeds are all
          banned. Every stochastic component must draw from an explicitly
          seeded apt::Rng so runs are reproducible bit-for-bit.

  engine  No stateful <random> engine (std::mt19937 and friends) outside
          src/base/rng.hpp, where apt::Rng wraps the one sanctioned
          instance. A stateful draw depends on how many draws came
          before, so any engine reachable from a parallel or sharded path
          silently breaks the bit-determinism contract; gradient-path
          randomness in particular must come from the counter-based
          Philox stream (philox_u32 / philox_fill_u32 / sr_mix_key),
          which is a pure function of (step, layer, element index).

  clock   No wall-clock reads (std::chrono ...::now, gettimeofday,
          time(), clock()) in library code. Kernels and layers must be
          pure functions of their inputs; timing lives in bench/.

  accum   No scalar accumulation into captured state inside a parallel
          dispatch body (ThreadPool::parallel_for / parallel_for_chunked
          / shard_parallel). `sum += x` on a captured scalar is a data
          race or an order-dependent reduction; write into a per-chunk /
          per-shard slot (`partial[c] += x`, allowed) and reduce at a
          serial point, or accumulate into a body-local first.

  rawio   No raw file writes (std::ofstream / std::fstream, fopen /
          freopen / fwrite) in library code outside src/io/. Direct
          writes land bytes at the final path incrementally, so a crash
          or full disk leaves a torn, checksum-less file where a reader
          expects an artifact. All durable output must go through
          src/io/ (write_file_atomic's temp + fsync + rename and the
          checksummed artifact container); reads (std::ifstream) are
          unrestricted because loaders validate defensively.

  docsync Repo-level doc/flag consistency: every `--min-*` gate flag
          defined in bench/bench_runner.cpp must appear in README.md's
          gated-bench-key table (a markdown table row). The README table
          is the operator-facing contract for the CI perf gate; a new
          floor flag that never reaches it is an undocumented gate.
          Likewise every `getenv("NAME")` under src/, bench/ and
          examples/ must have a row in README.md's "Environment
          variables" table, and every backticked name in that table's
          first column must be read by one of them: an unlisted knob is
          undocumented, a listed one nothing reads is a dead promise.
          Runs only in --root mode (it is not a per-file C++ rule).

Escape hatch: a line (or the line directly above it) containing
`apt-lint: allow(<rule>[,<rule>...])` exempts that line, for cases where
the invariant is upheld by other documented means. Use sparingly and
justify in a comment.

Usage:
  apt_lint.py [--root DIR] [FILE...]
Scans DIR/src (default: repo root containing this script) or the given
files. Exits non-zero if any violation is found.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, NamedTuple, Tuple

RULES = ("thread", "rng", "engine", "clock", "accum", "rawio", "docsync")

ALLOW_RE = re.compile(r"apt-lint:\s*allow\(([a-z,\s]+)\)")

# Files exempt from the `thread` rule: the one place raw primitives are
# allowed to live.
THREAD_EXEMPT_RE = re.compile(r"src[/\\]base[/\\]thread_pool\.(hpp|cpp)$")

# Files exempt from the `engine` rule: the home of the one sanctioned
# stateful engine (inside apt::Rng) and of the counter-based generator.
ENGINE_EXEMPT_RE = re.compile(r"src[/\\]base[/\\]rng\.hpp$")

# Files exempt from the `rawio` rule: the crash-safe I/O layer itself,
# where the primitive writes are wrapped.
RAWIO_EXEMPT_RE = re.compile(r"src[/\\]io[/\\]")

THREAD_RE = re.compile(
    r"\bstd::(thread|jthread|async)\b|#\s*pragma\s+omp\b|\bpthread_create\b"
)
RNG_RE = re.compile(
    r"\bstd::rand\b|(?<![\w:])s?rand\s*\(|\b(std::)?random_device\b"
    r"|(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"
)
ENGINE_RE = re.compile(
    r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux(24|48)(_base)?|knuth_b"
    r"|(subtract_with_carry|linear_congruential|mersenne_twister"
    r"|discard_block|independent_bits|shuffle_order)_engine)\b"
)
CLOCK_RE = re.compile(
    r"\bstd::chrono::(system_clock|steady_clock|high_resolution_clock)::now\b"
    r"|\bgettimeofday\b|(?<![\w:.])clock\s*\(\s*\)"
)
DISPATCH_RE = re.compile(r"\b(parallel_for_chunked|parallel_for|shard_parallel)\s*\(")
RAWIO_RE = re.compile(
    r"\bstd::(ofstream|fstream)\b"
    r"|(?<![\w:])f(?:re)?open\s*\("
    r"|(?<![\w:])fwrite\s*\("
)

# Local declarations inside a lambda body (heuristic): a type-ish token
# followed by an identifier being initialised or declared.
DECL_RE = re.compile(
    r"\b(?:float|double|bool|char|unsigned|int|long|auto|size_t"
    r"|u?int(?:8|16|32|64)_t|std::\w+(?:<[^;{}]*>)?|Tensor|Shape)"
    r"(?:\s*[&*]|\s)\s*(\w+)\s*(?:=|;|\{|\()"
)
# Compound assignment / inc-dec on a BARE identifier (no subscript,
# member access, or dereference — per-slot writes like `p[c] += x` stay
# legal because each slot has one writer).
SCALAR_ACCUM_RE = re.compile(r"(?<![\w\]\).\->])(\w+)\s*(\+=|-=|\*=|/=)")
INCDEC_PRE_RE = re.compile(r"(\+\+|--)\s*(\w+)\b(?!\s*[\[.)])")
INCDEC_POST_RE = re.compile(r"(?<![\w\]\).])\b(\w+)\s*(\+\+|--)")


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str


def strip_comments_and_strings(text: str) -> str:
    """Returns text of identical length/line structure with comments,
    string literals, and char literals blanked out (so rule patterns never
    match inside them) while the original stays available for allow()
    detection."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def allowed_rules(orig_lines: List[str], lineno: int) -> set:
    """Rules exempted for 1-based line `lineno` by an allow() on that line
    or the one directly above."""
    rules = set()
    for ln in (lineno - 1, lineno - 2):
        if 0 <= ln < len(orig_lines):
            m = ALLOW_RE.search(orig_lines[ln])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] == '{' (text must
    already be comment/string-stripped), or len(text) if unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def lambda_bodies(stripped: str) -> List[Tuple[int, str]]:
    """(body_start_offset, body_text) for every lambda passed anywhere
    inside a parallel dispatch call's argument list."""
    bodies = []
    for m in DISPATCH_RE.finditer(stripped):
        # Bound the call's argument list by paren matching.
        call_open = m.end() - 1
        depth, call_end = 0, len(stripped)
        for i in range(call_open, len(stripped)):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    call_end = i
                    break
        # Every lambda in the argument list: capture list, optional
        # params, then the body braces.
        region = stripped[call_open:call_end]
        for lm in re.finditer(r"\[[&=\w,\s*]*\]\s*(\(([^()]|\([^()]*\))*\))?\s*(?:mutable\s*)?(?:->[^{]+)?\{", region):
            body_open = call_open + lm.end() - 1
            body_close = match_brace(stripped, body_open)
            params = lm.group(1) or ""
            bodies.append((body_open, params, stripped[body_open:body_close]))
    return bodies


def check_accum(stripped: str, orig_lines: List[str], path: str) -> List[Violation]:
    violations = []
    seen = set()
    for body_start, params, body in lambda_bodies(stripped):
        locals_ = set()
        for dm in DECL_RE.finditer(body):
            locals_.add(dm.group(1))
            # Multi-declarator statements: `double a = 0.0, b = 0.0;`
            # declares b too. Scan the rest of the statement for
            # comma-separated declarators (heuristic: an identifier
            # directly following a comma and followed by =, comma, or ;).
            stmt_end = body.find(";", dm.end())
            if stmt_end != -1:
                for extra in re.finditer(
                    r",\s*[&*]?\s*(\w+)\s*(?:=|,|;)", body[dm.end(): stmt_end + 1]
                ):
                    locals_.add(extra.group(1))
        for pm in re.finditer(r"(\w+)\s*[,)]", params):
            locals_.add(pm.group(1))

        hits = []
        for am in SCALAR_ACCUM_RE.finditer(body):
            hits.append((am.start(1), am.group(1)))
        for am in INCDEC_PRE_RE.finditer(body):
            hits.append((am.start(2), am.group(2)))
        for am in INCDEC_POST_RE.finditer(body):
            hits.append((am.start(1), am.group(1)))

        for off, name in hits:
            if not name or name[0].isdigit() or name in locals_:
                continue
            lineno = stripped.count("\n", 0, body_start + off) + 1
            key = (lineno, name)
            if key in seen:
                continue
            seen.add(key)
            if "accum" in allowed_rules(orig_lines, lineno):
                continue
            violations.append(
                Violation(
                    path,
                    lineno,
                    "accum",
                    f"scalar accumulation into captured '{name}' inside a "
                    "parallel dispatch body; use a per-chunk slot or a "
                    "body-local and reduce at a serial point",
                )
            )
    return violations


def check_file(path: str, display_path: str | None = None) -> List[Violation]:
    display = display_path or path
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Violation(display, 0, "io", str(e))]

    orig_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    violations: List[Violation] = []

    line_rules = [
        ("rng", RNG_RE, "non-deterministic RNG or time-based seed; draw from an explicitly seeded apt::Rng"),
        ("clock", CLOCK_RE, "wall-clock read in library code; timing belongs in bench/"),
    ]
    if not THREAD_EXEMPT_RE.search(display.replace(os.sep, "/")):
        line_rules.insert(
            0,
            ("thread", THREAD_RE, "raw threading primitive outside src/base/thread_pool.*; use ThreadPool"),
        )
    if not ENGINE_EXEMPT_RE.search(display.replace(os.sep, "/")):
        line_rules.append(
            ("engine", ENGINE_RE, "stateful <random> engine outside src/base/rng.hpp; draw from a seeded apt::Rng, or the counter-based philox_* stream on gradient paths"),
        )
    if not RAWIO_EXEMPT_RE.search(display.replace(os.sep, "/")):
        line_rules.append(
            ("rawio", RAWIO_RE, "raw file write outside src/io/; durable output must go through write_file_atomic / the artifact container (io/atomic_file.hpp, io/artifact.hpp) so a crash never leaves a torn file at the final path"),
        )

    for idx, line in enumerate(stripped_lines):
        lineno = idx + 1
        for rule, pattern, msg in line_rules:
            if pattern.search(line) and rule not in allowed_rules(orig_lines, lineno):
                violations.append(Violation(display, lineno, rule, msg))

    violations.extend(check_accum(stripped, orig_lines, display))
    violations.sort(key=lambda v: (v.path, v.line))
    return violations


MIN_FLAG_RE = re.compile(r"--min-[a-z0-9][a-z0-9-]*")
GETENV_RE = re.compile(r'getenv\(\s*"([A-Za-z_][A-Za-z0-9_]*)"\s*\)')
ENV_HEADING = "## Environment variables"
# Directories whose getenv reads the README's environment table lists.
ENV_DIRS = ("src", "bench", "examples")


def check_docsync(root: str) -> List[Violation]:
    """README.md must document every --min-* gate flag of
    bench/bench_runner.cpp and exactly the environment variables the
    code reads."""
    return check_gate_flags(root) + check_env_vars(root)


def check_gate_flags(root: str) -> List[Violation]:
    """Every --min-* gate flag in bench/bench_runner.cpp must appear in a
    markdown table row of README.md (the gated-bench-key table)."""
    bench_path = os.path.join(root, "bench", "bench_runner.cpp")
    readme_path = os.path.join(root, "README.md")
    if not os.path.isfile(bench_path):
        return []  # nothing to sync (e.g. a selftest tree without bench/)
    with open(bench_path, "r", encoding="utf-8", errors="replace") as f:
        bench_text = f.read()

    # First defining line per flag, for actionable messages.
    flags = {}
    for idx, line in enumerate(bench_text.splitlines(), start=1):
        for m in MIN_FLAG_RE.finditer(line):
            flags.setdefault(m.group(0), idx)
    if not flags:
        return []

    table_rows = ""
    if os.path.isfile(readme_path):
        with open(readme_path, "r", encoding="utf-8", errors="replace") as f:
            table_rows = "\n".join(
                ln for ln in f.read().splitlines() if ln.lstrip().startswith("|"))

    violations = []
    for flag in sorted(flags):
        # Boundary-aware: `--min-train-speedup-2t` in the table must not
        # satisfy a lookup for `--min-train-speedup`.
        if not re.search(re.escape(flag) + r"(?![a-z0-9-])", table_rows):
            violations.append(
                Violation(
                    os.path.join("bench", "bench_runner.cpp"),
                    flags[flag],
                    "docsync",
                    f"gate flag '{flag}' is not documented in README.md's "
                    "gated-bench-key table; every perf-gate floor must "
                    "appear there with its default and gated key",
                )
            )
    return violations


def env_table(readme_text: str) -> List[Tuple[str, int]]:
    """(name, line) for every backticked name in the first column of the
    table under README.md's "Environment variables" heading."""
    names = []
    in_section = False
    for idx, line in enumerate(readme_text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.strip() == ENV_HEADING
            continue
        if in_section and line.lstrip().startswith("|"):
            first = line.strip().strip("|").split("|")[0]
            names.extend((n, idx) for n in re.findall(r"`([^`]+)`", first))
    return names


def check_env_vars(root: str) -> List[Violation]:
    """Every getenv("NAME") literal under src/, bench/ and examples/ must
    have a row in README.md's environment table, and every name the
    table lists must be read by one of them."""
    reads = {}  # name -> (path, line) of its first read
    for top in ENV_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                if not fn.endswith((".cpp", ".hpp", ".h", ".cc")):
                    continue
                path = os.path.join(dirpath, fn)
                with open(path, "r", encoding="utf-8", errors="replace") as f:
                    for idx, line in enumerate(f, start=1):
                        for m in GETENV_RE.finditer(line):
                            reads.setdefault(
                                m.group(1), (os.path.relpath(path, root), idx))

    readme_path = os.path.join(root, "README.md")
    table = []
    if os.path.isfile(readme_path):
        with open(readme_path, "r", encoding="utf-8", errors="replace") as f:
            table = env_table(f.read())
    documented = {name for name, _ in table}

    violations = []
    for name in sorted(reads):
        if name not in documented:
            path, line = reads[name]
            violations.append(
                Violation(path, line, "docsync",
                          f"environment variable '{name}' is read here but "
                          "has no row in README.md's \"Environment "
                          "variables\" table"))
    for name, line in table:
        if name not in reads:
            violations.append(
                Violation("README.md", line, "docsync",
                          f"README.md's \"Environment variables\" table "
                          f"lists '{name}', but no getenv under src/, "
                          "bench/ or examples/ reads it"))
    return violations


def collect_sources(root: str) -> List[str]:
    files = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith((".cpp", ".hpp", ".h", ".cc")):
                files.append(os.path.join(dirpath, fn))
    return files


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="repository root (scans ROOT/src)")
    parser.add_argument("files", nargs="*", help="specific files to lint instead of ROOT/src")
    args = parser.parse_args(argv)

    targets = args.files or collect_sources(args.root)
    if not targets:
        print("apt_lint: no source files found", file=sys.stderr)
        return 2

    all_violations: List[Violation] = []
    for path in targets:
        rel = os.path.relpath(path, args.root) if os.path.isabs(path) else path
        all_violations.extend(check_file(path, rel))
    if not args.files:  # repo-level rules only make sense in --root mode
        all_violations.extend(check_docsync(args.root))

    for v in all_violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if all_violations:
        print(f"apt_lint: {len(all_violations)} violation(s) in "
              f"{len({v.path for v in all_violations})} file(s)", file=sys.stderr)
        return 1
    print(f"apt_lint: {len(targets)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
