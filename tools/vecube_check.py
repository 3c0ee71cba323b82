#!/usr/bin/env python3
"""vecube_check: project contracts that generic analysis cannot express.

Concurrency contracts (clang-tidy and -Wthread-safety see language
rules, not these project invariants) and repo conventions share one rule
engine: the comment-aware tokenizer, the suppression syntax and the
finding format. The call-graph rules run on a self-contained lexer:
brace-matched function extraction over src/ (headers included), needing
nothing beyond the standard library. It over-approximates the call graph
(unqualified calls may match more than one definition), which is the
safe direction for every rule here.

Rules (suppress a single line with ``// vecube-check: disable=<rule>``):

  hit-path-no-locks      No mutex acquisition, condition wait, or fill
                         wait may be *reachable* from the ViewCache hit
                         path (ViewCache::FindPinned, the probe every
                         cache read starts with). Call-graph
                         reachability, not a per-body regex: a helper
                         that locks is flagged even if the root body
                         looks clean.
  epoch-pin-raii         Epoch pins are RAII-only. EpochDomain::Acquire /
                         EpochDomain::Pin may appear only in
                         src/util/epoch.{h,cc} and
                         src/serve/view_cache.{h,cc}; every Acquire()
                         call must initialize a local Pin on the same
                         statement; the only sanctioned long-lived pin
                         member is ViewCache::ReadHandle::pin_ (the RAII
                         handle itself). Pins squirreled away in other
                         members would stall epoch reclamation forever.
  order-comment          Every line whose code mentions memory_order
                         must carry an ``order:`` justification comment
                         on the same line or within the 6 lines above.
                         Un-annotated orderings rot into cargo cult.
  no-blocking-under-shard-lock
                         Inside a scope holding a ViewCache shard mutex
                         (``MutexLock l(shard...mu)``), no blocking call:
                         no condition wait, no WaitFill, no file I/O or
                         fsync, no sleeps — and no second lock (the
                         shard tier is the innermost lock level; see
                         DESIGN.md §12).
  no-unbounded-wait      No bare ``CondVar::Wait`` may be *reachable*
                         from the serving path (WaitFill, ExecuteShared,
                         Admit, the session/dynamic/range query entry
                         points, ParallelFor): every wait a query can
                         block on must be a bounded ``WaitFor`` slice so
                         deadlines and cancellation are always honored
                         (DESIGN.md §13). Call-graph reachability, like
                         hit-path-no-locks.
  naked-sync-primitives  src/ outside util/sync.h may not name raw
                         std::mutex / condition_variable / lock_guard /
                         unique_lock / scoped_lock / shared_lock (or
                         include their headers): the annotated wrappers
                         in util/sync.h are the only sanctioned
                         primitives, otherwise thread-safety analysis
                         has blind spots. std::thread is allowed only in
                         util/thread_pool.{h,cc} (std::this_thread and
                         std::thread::hardware_concurrency are fine
                         anywhere).
  detached-threads       ``.detach()`` is banned in src/: a detached
                         thread outlives every shutdown contract in the
                         tree.
  escape-hatch-allowlist Every use of VECUBE_NO_THREAD_SAFETY_ANALYSIS
                         outside its definition in util/sync.h must be
                         registered in tools/thread_safety_allowlist.txt
                         with a justification.
  header-guard           Every header under src/ uses the canonical
                         include guard VECUBE_<DIR>_<FILE>_H_
                         (ifndef/define pair and a matching
                         ``#endif  // <guard>`` trailer).
  no-stdio               No printf/fprintf/cout/cerr/puts in library code
                         (src/ outside src/util/) or in tests/. Benchmark
                         programs (bench/) and CLI tools (tools/) are
                         reporting executables and ARE the output, so
                         they may print; src/util/ hosts the logging sink.
  no-naked-new           No naked ``new``/``delete``. ``new`` is allowed
                         only when directly handed to a smart pointer
                         (unique_ptr/shared_ptr construction on the same
                         statement); ``delete`` expressions are banned
                         outright (``= delete`` declarations are fine).
  no-nondeterminism      src/core/, src/haar/ and src/serve/ must stay
                         bit-reproducible (cached answers must equal
                         re-assembled ones bit for bit): std::rand,
                         srand, random_device, time(), clock(),
                         gettimeofday, system_clock,
                         high_resolution_clock and getenv are banned
                         there (util/rng.h is the only sanctioned
                         randomness).
  nodiscard-status       Status and Result<T> must carry a class-level
                         [[nodiscard]] in src/util/status.h /
                         src/util/result.h, so EVERY function returning
                         them is discard-checked.
  simd-dispatch          SIMD intrinsics (immintrin.h, _mm*/_mm256*/_mm512*
                         calls, __m128/__m256/__m512 types) may appear
                         only in src/haar/simd_avx2.cc — the one
                         translation unit compiled with -mavx2 and reached
                         solely through the runtime-dispatched table in
                         src/haar/simd.h.

The concurrency rules look at src/ only; the convention rules scan src/,
tests/, bench/ and tools/ (minus the deliberately broken
tools/canaries/).

Usage:
  tools/vecube_check.py [--root DIR] [--list-rules] [--canaries DIR]
                        [paths...]

``--canaries DIR`` flips to self-test mode: each *.cc file under DIR
declares, in its leading comments, the virtual path it should be checked
as and the rule(s) it must trip:

  // vecube-check-as: src/serve/view_cache.cc
  // vecube-check-expect: hit-path-no-locks

The run fails unless every canary trips every expected rule — proof the
checker still has teeth.

Exits 0 when clean (or all canaries trip), 1 on findings (or a silent
canary), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

RULES = (
    "hit-path-no-locks",
    "epoch-pin-raii",
    "order-comment",
    "no-blocking-under-shard-lock",
    "no-unbounded-wait",
    "naked-sync-primitives",
    "detached-threads",
    "escape-hatch-allowlist",
    "header-guard",
    "no-stdio",
    "no-naked-new",
    "no-nondeterminism",
    "nodiscard-status",
    "simd-dispatch",
)

SCAN_DIRS = ("src", "tests", "bench", "tools")
CANARY_DIR = "tools/canaries"  # deliberately broken; self-test input only

DISABLE_RE = re.compile(r"//\s*vecube-check:\s*disable=([\w,-]+)")

# --- hit-path-no-locks -------------------------------------------------
HIT_PATH_ROOTS = (
    "ViewCache::FindPinned",
)
# Anything that acquires, waits, or blocks. The hit path may touch
# atomics and epoch pins only.
HIT_PATH_BAN_RE = re.compile(
    r"\b(?:MutexLock|WriterLock|ReaderLock)\b"
    r"|\bstd::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|(?:\.|->)\s*(?:Lock|LockShared|lock|try_lock|lock_shared)\s*\("
    r"|(?:\.|->)\s*Wait(?:For)?\s*\("
    r"|\bWaitFill\s*\("
)

# --- no-unbounded-wait -------------------------------------------------
# Everywhere a query can block. A bare `.Wait(` reachable from any of
# these can outlive the query's deadline; only timed `WaitFor` slices
# (re-checking the QueryContext each wake) are allowed (DESIGN.md §13).
SERVING_WAIT_ROOTS = (
    "ViewCache::WaitFill",
    "AssemblyEngine::ExecuteShared",
    "AdmissionController::Admit",
    "AdmissionController::Drain",
    "OlapSession::Element",
    "OlapSession::Query",
    "OlapSession::RangeSum",
    "DynamicAssembler::Query",
    "RangeEngine::RangeSum",
    "ElementServer::Serve",
    "ThreadPool::ParallelFor",
)
# `.Wait(` / `->Wait(` exactly — WaitFor( and WaitFill( do not match.
UNBOUNDED_WAIT_RE = re.compile(r"(?:\.|->)\s*Wait\s*\(")

# --- epoch-pin-raii ----------------------------------------------------
EPOCH_PIN_FILES = {
    "src/util/epoch.h",
    "src/util/epoch.cc",
    "src/serve/view_cache.h",
    "src/serve/view_cache.cc",
}
EPOCH_TOKEN_RE = re.compile(r"\bEpochDomain::(?:Acquire|Pin)\b")
ACQUIRE_CALL_RE = re.compile(r"\bEpochDomain::Acquire\s*\(")
ACQUIRE_RAII_RE = re.compile(
    r"\b(?:EpochDomain::)?Pin\s+\w+\s*=\s*EpochDomain::Acquire\s*\(")
PIN_MEMBER_RE = re.compile(r"\bPin\s+(\w+_)\s*[;{=]")
PIN_MEMBER_ALLOWED = {("src/serve/view_cache.h", "pin_")}

# --- order-comment -----------------------------------------------------
ORDER_WINDOW = 6  # lines above (inclusive) that may carry the comment
ORDER_TOKEN_RE = re.compile(r"\bmemory_order")
ORDER_COMMENT_RE = re.compile(r"order:")

# --- no-blocking-under-shard-lock -------------------------------------
SHARD_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*[\w.>-]*shard[\w.>-]*mu")
BLOCKING_RE = re.compile(
    r"(?:\.|->)\s*Wait(?:For)?\s*\("
    r"|\bWaitFill\s*\("
    r"|\bsleep(?:_for|_until)?\s*\("
    r"|\bstd::this_thread\b"
    r"|\b(?:fopen|fread|fwrite|fflush|fsync|fdatasync|open|read|write)\s*\("
    r"|(?:\.|->)\s*(?:Sync|Flush|Append)\s*\("
    r"|\bstd::[io]?fstream\b"
)
NESTED_LOCK_RE = re.compile(r"\b(?:MutexLock|WriterLock|ReaderLock)\s+\w+\s*\(")

# --- naked-sync-primitives / detached-threads -------------------------
SYNC_ALLOWED_FILE = "src/util/sync.h"
NAKED_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)
THREAD_ALLOWED_FILES = {"src/util/thread_pool.h", "src/util/thread_pool.cc"}
# std::thread the *type*; the nested non-spawning utilities are fine.
NAKED_THREAD_RE = re.compile(
    r"\bstd::thread\b(?!\s*::\s*(?:hardware_concurrency|id)\b)")
DETACH_RE = re.compile(r"(?:\.|->)\s*detach\s*\(\s*\)")

# --- escape-hatch-allowlist -------------------------------------------
ESCAPE_HATCH = "VECUBE_NO_THREAD_SAFETY_ANALYSIS"
ALLOWLIST_PATH = "tools/thread_safety_allowlist.txt"

# --- repo conventions -------------------------------------------------
STDIO_RE = re.compile(
    r"\b(?:std::)?(?:printf|fprintf|vprintf|vfprintf|puts|putchar)\s*\("
    r"|\bstd::(?:cout|cerr|clog)\b"
)
NONDET_DIRS = ("src/core/", "src/haar/", "src/serve/")
NONDET_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|time|clock|gettimeofday|getenv)\s*\("
    r"|\bstd::random_device\b"
    r"|\bstd::chrono::(?:system_clock|high_resolution_clock)\b"
)
SIMD_RE = re.compile(
    r"\b_mm(?:256|512)?_\w+\s*\("
    r"|\b__m(?:128|256|512)[di]?\b"
    r"|\bimmintrin\.h\b"
)
SIMD_ALLOWED = ("src/haar/simd_avx2.cc",)
NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")  # `new T`, not `operator new(`
DELETE_EXPR_RE = re.compile(r"(?<![\w.])delete(?:\s*\[\s*\])?\s+[\w:(*]")
SMART_PTR_RE = re.compile(
    r"\b(?:unique_ptr|shared_ptr|make_unique|make_shared)\b")
NODISCARD_CLASSES = {"src/util/status.h": "Status",
                     "src/util/result.h": "Result"}

KEYWORDS = frozenset(
    "if while for switch return sizeof new delete catch alignof decltype "
    "static_cast dynamic_cast reinterpret_cast const_cast static_assert "
    "alignas noexcept throw defined assert".split())


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """One file with raw lines and comment-stripped code lines."""

    def __init__(self, rel: str, text: str):
        self.rel = rel  # posix-style path relative to the repo root
        self.raw_lines = text.splitlines()
        self.code_lines = strip_comments(text)

    def code(self, lineno: int) -> str:
        return self.code_lines[lineno - 1] if \
            1 <= lineno <= len(self.code_lines) else ""

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if \
            1 <= lineno <= len(self.raw_lines) else ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        m = DISABLE_RE.search(self.raw(lineno))
        return bool(m) and rule in m.group(1).split(",")


def strip_comments(text: str) -> list:
    """Per-line code with //-comments, /* */ blocks, and string literal
    *contents* removed; line structure preserved so line numbers and
    brace matching stay addressable."""
    out = []
    i = 0
    n = len(text)
    line = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if ch == '"':
                state = "string"
                line.append('"')
                i += 1
                continue
            if ch == "'":
                state = "char"
                line.append("'")
                i += 1
                continue
            line.append(ch)
        elif state == "string":
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                state = "code"
                line.append('"')
        elif state == "char":
            if ch == "\\":
                i += 2
                continue
            if ch == "'":
                state = "code"
                line.append("'")
        # line_comment / block_comment: drop the character.
        if state == "block_comment" and ch == "*" and nxt == "/":
            state = "code"
            i += 2
            continue
        i += 1
    out.append("".join(line))
    return out


class Function:
    def __init__(self, qualname: str, rel: str, start: int, end: int,
                 body: str):
        self.qualname = qualname           # e.g. "ViewCache::FindPinned"
        self.name = qualname.rsplit("::", 1)[-1]
        self.rel = rel
        self.start_line = start            # line of the opening brace
        self.end_line = end                # line of the closing brace
        self.body = body                   # comment-stripped body text
        self.callees = set()               # resolved Function objects


class FunctionIndex:
    """Function definitions plus a (possibly over-approximated) call
    graph, built by index_file_lexer; consumed by the graph rules."""

    def __init__(self):
        self.functions = []                # [Function]
        self.by_name = {}                  # last component -> [Function]
        self.by_qual = {}                  # suffix-qualified -> [Function]

    def add(self, fn: Function):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)
        # Register every qualified suffix: A::B::C -> {A::B::C, B::C}.
        parts = fn.qualname.split("::")
        for k in range(len(parts) - 1):
            self.by_qual.setdefault("::".join(parts[k:]), []).append(fn)

    def resolve(self, callee: str, caller: Function) -> list:
        """All definitions a call token may bind to. Qualified names
        match by suffix; unqualified names prefer same-file definitions
        and fall back to every definition with that name (conservative
        over-approximation — safe for ban rules)."""
        if "::" in callee:
            return self.by_qual.get(callee, [])
        cands = self.by_name.get(callee, [])
        same_file = [f for f in cands if f.rel == caller.rel]
        return same_file if same_file else cands

    def link(self):
        call_re = re.compile(
            r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\(")
        for fn in self.functions:
            for m in call_re.finditer(fn.body):
                token = m.group(1)
                base = token.rsplit("::", 1)[-1]
                if base in KEYWORDS or token.startswith("VECUBE_"):
                    continue
                for target in self.resolve(token, fn):
                    if target is not fn:
                        fn.callees.add(target)

    def reachable(self, root_quals) -> list:
        roots = []
        for q in root_quals:
            roots.extend(self.by_qual.get(q, []))
        seen = set()
        stack = list(roots)
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            stack.extend(fn.callees)
        return [f for f in self.functions if id(f) in seen]


# ----------------------------------------------------------------------
# Function index: brace-matched function extraction.
# ----------------------------------------------------------------------

FUNC_HEAD_RE = re.compile(
    r"(?:^|[;{}]|\n)\s*"                       # statement boundary
    r"(?:[\w:<>,&*~\s\[\]]*?\s)??"             # return type / specifiers
    r"((?:[A-Za-z_]\w*::)*~?[A-Za-z_]\w*)\s*\(")


def index_file_lexer(src: SourceFile, index: FunctionIndex):
    text = "\n".join(src.code_lines)
    for m in FUNC_HEAD_RE.finditer(text):
        name = m.group(1)
        base = name.rsplit("::", 1)[-1].lstrip("~")
        if base in KEYWORDS or name.startswith("VECUBE_"):
            continue
        # Walk the parameter list.
        pos = m.end()
        depth = 1
        while pos < len(text) and depth > 0:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
            pos += 1
        if depth != 0:
            continue
        # Skip qualifiers / annotations / a constructor init list up to
        # the body's `{` — bail at `;` (a declaration, not a definition).
        body_start = None
        paren = 0
        while pos < len(text):
            ch = text[pos]
            if paren == 0 and ch == ";":
                break
            if paren == 0 and ch == "{":
                body_start = pos
                break
            if paren == 0 and ch == "=":      # `= default` / `= delete`
                break
            if ch == "(":
                paren += 1
            elif ch == ")":
                paren -= 1
            pos += 1
        if body_start is None:
            continue
        # Brace-match the body.
        pos = body_start + 1
        depth = 1
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        if depth != 0:
            continue
        start_line = text.count("\n", 0, body_start) + 1
        end_line = text.count("\n", 0, pos) + 1
        index.add(Function(name, src.rel, start_line, end_line,
                           text[body_start:pos]))


# ----------------------------------------------------------------------
# Rules.
# ----------------------------------------------------------------------

def check_hit_path(index: FunctionIndex, sources: dict, findings: list):
    for fn in index.reachable(HIT_PATH_ROOTS):
        src = sources.get(fn.rel)
        if src is None:
            continue
        for lineno in range(fn.start_line, fn.end_line + 1):
            if HIT_PATH_BAN_RE.search(src.code(lineno)) and \
                    not src.suppressed(lineno, "hit-path-no-locks"):
                findings.append(Finding(
                    fn.rel, lineno, "hit-path-no-locks",
                    f"blocking/locking call inside {fn.qualname}, which "
                    "is reachable from the ViewCache hit path; reads must "
                    "stay epoch-pinned and lock-free (DESIGN.md §12)"))


def check_unbounded_wait(index: FunctionIndex, sources: dict,
                         findings: list):
    for fn in index.reachable(SERVING_WAIT_ROOTS):
        src = sources.get(fn.rel)
        if src is None:
            continue
        for lineno in range(fn.start_line, fn.end_line + 1):
            if UNBOUNDED_WAIT_RE.search(src.code(lineno)) and \
                    not src.suppressed(lineno, "no-unbounded-wait"):
                findings.append(Finding(
                    fn.rel, lineno, "no-unbounded-wait",
                    f"bare CondVar::Wait inside {fn.qualname}, which is "
                    "reachable from the serving path; use a bounded "
                    "WaitFor slice that re-checks the QueryContext "
                    "(DESIGN.md §13)"))


def check_epoch_pin(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    allowed = src.rel in EPOCH_PIN_FILES
    for lineno, code in enumerate(src.code_lines, start=1):
        if not allowed and EPOCH_TOKEN_RE.search(code) and \
                not src.suppressed(lineno, "epoch-pin-raii"):
            findings.append(Finding(
                src.rel, lineno, "epoch-pin-raii",
                "EpochDomain pins may be taken only inside "
                "util/epoch and serve/view_cache; everything else reads "
                "through ViewCache::ReadHandle"))
            continue
        if allowed and src.rel.endswith(".cc") and \
                not src.rel.startswith("src/util/epoch"):
            if ACQUIRE_CALL_RE.search(code) and \
                    not ACQUIRE_RAII_RE.search(code) and \
                    not src.suppressed(lineno, "epoch-pin-raii"):
                findings.append(Finding(
                    src.rel, lineno, "epoch-pin-raii",
                    "EpochDomain::Acquire() must initialize a local "
                    "`Pin` on the same statement (RAII); pins must never "
                    "outlive the enclosing scope"))
        m = PIN_MEMBER_RE.search(code)
        if m and (src.rel, m.group(1)) not in PIN_MEMBER_ALLOWED and \
                not src.rel.startswith("src/util/epoch") and \
                not src.suppressed(lineno, "epoch-pin-raii"):
            findings.append(Finding(
                src.rel, lineno, "epoch-pin-raii",
                f"member `{m.group(1)}` stores an epoch pin beyond "
                "local scope; the only sanctioned pin member is "
                "ViewCache::ReadHandle::pin_"))


def check_order_comment(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if not ORDER_TOKEN_RE.search(code):
            continue
        if src.suppressed(lineno, "order-comment"):
            continue
        window = range(max(1, lineno - ORDER_WINDOW), lineno + 1)
        if any(ORDER_COMMENT_RE.search(src.raw(n)) for n in window):
            continue
        findings.append(Finding(
            src.rel, lineno, "order-comment",
            "memory_order use without an adjacent `// order:` "
            "justification (same line or within the 6 lines above)"))


def check_blocking_under_shard_lock(src: SourceFile, findings: list):
    if src.rel != "src/serve/view_cache.cc":
        return
    text = "\n".join(src.code_lines)
    # Pre-compute brace depth at the start of every line.
    depth_at = [0]
    d = 0
    for code in src.code_lines:
        d += code.count("{") - code.count("}")
        depth_at.append(d)
    for lineno, code in enumerate(src.code_lines, start=1):
        m = SHARD_LOCK_RE.search(code)
        if m is None:
            continue
        decl_depth = depth_at[lineno - 1]
        # Scan to the end of the enclosing scope.
        end = lineno
        while end < len(src.code_lines) and depth_at[end] >= decl_depth:
            end += 1
        for n in range(lineno, end + 1):
            line_code = src.code(n)
            if src.suppressed(n, "no-blocking-under-shard-lock"):
                continue
            if BLOCKING_RE.search(line_code):
                findings.append(Finding(
                    src.rel, n, "no-blocking-under-shard-lock",
                    "blocking call while holding a ViewCache shard "
                    "mutex; drop the lock first (DESIGN.md §12)"))
            elif n != lineno and NESTED_LOCK_RE.search(line_code):
                findings.append(Finding(
                    src.rel, n, "no-blocking-under-shard-lock",
                    "second lock acquired under a shard mutex; the "
                    "shard tier is the innermost lock level "
                    "(DESIGN.md §12)"))


def check_naked_sync(src: SourceFile, findings: list):
    if not src.rel.startswith("src/") or src.rel == SYNC_ALLOWED_FILE:
        return
    thread_ok = src.rel in THREAD_ALLOWED_FILES
    for lineno, code in enumerate(src.code_lines, start=1):
        if NAKED_SYNC_RE.search(code) and \
                not src.suppressed(lineno, "naked-sync-primitives"):
            findings.append(Finding(
                src.rel, lineno, "naked-sync-primitives",
                "raw standard-library synchronization primitive; use "
                "the annotated wrappers in util/sync.h (Mutex, "
                "SharedMutex, MutexLock, ReaderLock, CondVar)"))
        if not thread_ok and NAKED_THREAD_RE.search(code) and \
                not src.suppressed(lineno, "naked-sync-primitives"):
            findings.append(Finding(
                src.rel, lineno, "naked-sync-primitives",
                "std::thread outside util/thread_pool; route work "
                "through ThreadPool/ParallelFor"))


def check_detach(src: SourceFile, findings: list):
    if not src.rel.startswith("src/"):
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if DETACH_RE.search(code) and \
                not src.suppressed(lineno, "detached-threads"):
            findings.append(Finding(
                src.rel, lineno, "detached-threads",
                "detached thread; every thread in the tree must be "
                "joined by an owner with a shutdown contract"))


def load_allowlist(root: Path) -> dict:
    """path -> [justification]; '#' comments and blank lines skipped."""
    entries = {}
    path = root / ALLOWLIST_PATH
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        entries.setdefault(parts[0], []).append(
            parts[1] if len(parts) > 1 else "")
    return entries


def check_escape_hatches(src: SourceFile, allowlist: dict,
                         findings: list):
    if not src.rel.startswith("src/") or src.rel == SYNC_ALLOWED_FILE:
        return
    for lineno, code in enumerate(src.code_lines, start=1):
        if ESCAPE_HATCH not in code:
            continue
        if src.suppressed(lineno, "escape-hatch-allowlist"):
            continue
        justs = allowlist.get(src.rel, [])
        if not justs or not any(j.strip() for j in justs):
            findings.append(Finding(
                src.rel, lineno, "escape-hatch-allowlist",
                f"{ESCAPE_HATCH} not registered (with a justification) "
                f"in {ALLOWLIST_PATH}"))


def expected_guard(rel: str) -> str:
    parts = [p.upper().replace("-", "_").replace(".", "_")
             for p in rel.split("/")]
    stem = Path(rel).stem.upper()
    return "VECUBE_" + "_".join(parts[1:-1] + [stem, "H_"]) \
        if len(parts) > 2 else "VECUBE_" + stem + "_H_"


def check_header_guard(src: SourceFile, findings: list):
    if not src.rel.startswith("src/") or not src.rel.endswith(".h"):
        return
    guard = expected_guard(src.rel)
    text = "\n".join(src.raw_lines)
    ifndef = re.search(r"^#ifndef\s+(\S+)\s*$", text, re.MULTILINE)
    define = re.search(r"^#define\s+(\S+)\s*$", text, re.MULTILINE)
    if not ifndef or ifndef.group(1) != guard:
        message = f"expected include guard {guard}"
    elif not define or define.group(1) != guard:
        message = f"#define does not match guard {guard}"
    elif f"#endif  // {guard}" not in text:
        message = f"missing trailing '#endif  // {guard}'"
    else:
        return
    findings.append(Finding(src.rel, 1, "header-guard", message))


def check_conventions(src: SourceFile, findings: list):
    """no-stdio, simd-dispatch, no-nondeterminism and no-naked-new."""
    in_src = src.rel.startswith("src/")
    stdio_banned = (in_src and not src.rel.startswith("src/util/")) or \
        src.rel.startswith("tests/")
    nondet_banned = src.rel.startswith(NONDET_DIRS)
    simd_banned = src.rel not in SIMD_ALLOWED

    def flag(lineno: int, rule: str, message: str):
        if not src.suppressed(lineno, rule):
            findings.append(Finding(src.rel, lineno, rule, message))

    prev_code = ""
    for lineno, code in enumerate(src.code_lines, start=1):
        if stdio_banned and STDIO_RE.search(code):
            flag(lineno, "no-stdio", "stdio output in library/test code; "
                 "route through util/ or gtest")
        if simd_banned and SIMD_RE.search(code):
            flag(lineno, "simd-dispatch", "SIMD intrinsics outside "
                 "src/haar/simd_avx2.cc; go through the runtime-dispatched "
                 "HaarVecOps table")
        if nondet_banned and NONDET_RE.search(code):
            flag(lineno, "no-nondeterminism", "non-deterministic call in "
                 "determinism-critical directory; use util/rng.h")
        # "Same statement" across a line break: a smart-pointer wrapper on
        # the previous line (continuation) still owns this `new`.
        statement = code if prev_code.rstrip().endswith((";", "}", "{")) \
            else prev_code + " " + code
        if NEW_RE.search(code) and not SMART_PTR_RE.search(statement):
            flag(lineno, "no-naked-new", "naked new; hand it to unique_ptr/"
                 "shared_ptr on the same statement")
        if DELETE_EXPR_RE.search(code):
            flag(lineno, "no-naked-new", "delete expression; owners must be "
                 "smart pointers or containers")
        prev_code = code


def check_nodiscard_status(src: SourceFile, findings: list):
    class_name = NODISCARD_CLASSES.get(src.rel)
    if class_name is None:
        return
    if not re.search(r"class\s+\[\[nodiscard\]\]\s+" + class_name,
                     "\n".join(src.code_lines)):
        findings.append(Finding(
            src.rel, 1, "nodiscard-status",
            f"{class_name} must be declared 'class [[nodiscard]] "
            f"{class_name}' so every function returning it is "
            "discard-checked"))


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------

def collect_sources(root: Path, paths: list) -> dict:
    """rel-posix-path -> SourceFile for every .h/.cc under SCAN_DIRS
    (minus the canaries), or under the explicit paths."""
    files = []
    for p in paths or SCAN_DIRS:
        c = Path(p)
        if not c.is_absolute():
            c = root / c
        if c.is_dir():
            files.extend(sorted(f for f in c.rglob("*")
                                if f.suffix in (".h", ".cc")))
        elif c.exists():
            files.append(c)
    sources = {}
    for f in files:
        rel = f.resolve().relative_to(root.resolve()).as_posix()
        if not paths and rel.startswith(CANARY_DIR + "/"):
            continue
        sources[rel] = SourceFile(rel, f.read_text())
    return sources


def run_rules(root: Path, sources: dict) -> list:
    index = FunctionIndex()
    for src in sources.values():
        if src.rel.startswith("src/"):
            index_file_lexer(src, index)
    index.link()

    findings: list = []
    check_hit_path(index, sources, findings)
    check_unbounded_wait(index, sources, findings)
    allowlist = load_allowlist(root)
    for src in sources.values():
        check_epoch_pin(src, findings)
        check_order_comment(src, findings)
        check_blocking_under_shard_lock(src, findings)
        check_naked_sync(src, findings)
        check_detach(src, findings)
        check_escape_hatches(src, allowlist, findings)
        check_header_guard(src, findings)
        check_conventions(src, findings)
        check_nodiscard_status(src, findings)
    return findings


CANARY_AS_RE = re.compile(r"//\s*vecube-check-as:\s*(\S+)")
CANARY_EXPECT_RE = re.compile(r"//\s*vecube-check-expect:\s*([\w,-]+)")


def run_canaries(root: Path, canary_dir: Path) -> int:
    """Self-test: every canary must trip every rule it declares."""
    failures = 0
    canaries = sorted(canary_dir.glob("*.cc"))
    if not canaries:
        print(f"vecube_check: no canaries under {canary_dir}",
              file=sys.stderr)
        return 1
    for path in canaries:
        text = path.read_text()
        as_m = CANARY_AS_RE.search(text)
        exp_m = CANARY_EXPECT_RE.search(text)
        if not as_m or not exp_m:
            print(f"{path}: missing vecube-check-as / "
                  "vecube-check-expect directives", file=sys.stderr)
            failures += 1
            continue
        virtual = as_m.group(1)
        expected = set(exp_m.group(1).split(","))
        sources = {virtual: SourceFile(virtual, text)}
        findings = run_rules(root, sources)
        fired = {f.rule for f in findings}
        missing = expected - fired
        if missing:
            print(f"{path.name}: expected rule(s) did not fire: "
                  f"{', '.join(sorted(missing))}", file=sys.stderr)
            failures += 1
        else:
            print(f"{path.name}: tripped {', '.join(sorted(expected))}")
    if failures:
        print(f"vecube_check: {failures} silent canary(ies) — the "
              "checker has lost teeth", file=sys.stderr)
        return 1
    print(f"vecube_check: all {len(canaries)} canaries tripped")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--canaries", default=None,
                        help="run in self-test mode over this directory")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: src tests "
                             "bench tools)")
    args = parser.parse_args()

    if args.list_rules:
        print(" ".join(RULES))
        return 0

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent

    if args.canaries:
        cdir = Path(args.canaries)
        if not cdir.is_absolute():
            cdir = root / cdir
        return run_canaries(root, cdir)

    sources = collect_sources(root, args.paths)
    findings = run_rules(root, sources)
    if not args.paths:
        findings.extend(Finding(rel, 1, "nodiscard-status", "file missing")
                        for rel in NODISCARD_CLASSES if rel not in sources)
    for finding in sorted(findings, key=lambda f: (f.path, f.line)):
        print(finding)
    if findings:
        print(f"vecube_check: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"vecube_check: clean ({len(sources)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
