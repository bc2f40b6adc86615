#!/usr/bin/env python3
"""det_lint — structural determinism lint for the dex reproduction.

Every result this repo reports rides on byte-identical traces across
--jobs and on the three static_assert-pinned RNG stream
salts. Those contracts are enforced dynamically by the byte-compare
CI jobs and the scenario fuzzer; this tool enforces them *statically*, so a
careless `unordered_map` range-for or a wall-clock read in a hot path fails
the lint gate instead of waiting for a fuzzer seed to hit it.

Rules (docs/ARCHITECTURE.md "Determinism discipline" is the prose spec):

  DET001 unordered-iteration   range-for / begin() iteration over a
                               std::unordered_map / std::unordered_set.
                               Iteration order is unspecified and differs
                               across libstdc++ versions; sort into a vector
                               first, or allowlist the audited site.
  DET002 banned-nondet-source  rand()/srand(), std::random_device,
                               time()/clock(), std::chrono::*::now(),
                               getenv: wall-clock and environment inputs
                               outside audited instrumentation sites.
  DET003 pointer-keyed         map/set keyed by a pointer type: ASLR makes
                               the ordering (and hashing) run-dependent.
  DET004 rng-discipline        std:: random engines / distributions are
                               banned everywhere (their streams are
                               implementation-defined); support::Rng must be
                               constructed from a seed/salt/split/mix64
                               expression, i.e. derive from the TrialSpec
                               seed path.
  DET005 salt-registry         every `k*SeedSalt` constant must be constexpr
                               and every *pair* of salts must be pinned
                               distinct by a static_assert (a != b).
  DET006 parallel-float-accum  `double/float x += ...` inside a parallel_for
                               callback: cross-thread accumulation order is
                               nondeterministic.
  DET900 stale-allowlist       allowlist entry matches no site (burn it).
  DET901 missing-justification allowlisted site lacks a `// det:` comment.

Allowlist format (tools/det_lint_allow.txt): `RULE PATH TOKEN` per line,
`#` comments. An allowlisted site must still carry a `// det: <why>` comment
on the flagged line or within the three lines above it — the allowlist says
*who* audited, the comment says *why* the site is order-independent.

Usage: det_lint.py [--root DIR] [--scan DIR ...] [--allowlist FILE]
Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import bisect
import os
import re
import sys

SCAN_DIRS_DEFAULT = ["src", "tools", "examples"]
EXTENSIONS = (".h", ".cpp")

# DET002: banned nondeterminism sources. token -> (regex, message)
BANNED_SOURCES = [
    ("random_device", re.compile(r"\brandom_device\b"),
     "std::random_device is a nondeterministic seed source"),
    ("rand", re.compile(r"\b(?:s?rand)\s*\("),
     "rand()/srand() draw from hidden global state"),
    ("time", re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time() reads the wall clock"),
    ("clock", re.compile(r"\bclock\s*\(\s*\)"),
     "clock() reads the process clock"),
    ("now", re.compile(r"::\s*now\s*\(\s*\)"),
     "std::chrono::*::now() reads a clock"),
    ("getenv", re.compile(r"\bgetenv\s*\("),
     "getenv() makes behavior depend on the environment"),
]

# DET004: implementation-defined std <random> machinery (engines AND
# distributions: libstdc++ and libc++ produce different streams).
STD_RANDOM = re.compile(
    r"\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w*|knuth_b|subtract_with_carry_engine"
    r"|\w+_distribution)\b")

RNG_CTOR = re.compile(r"\bRng\s+([A-Za-z_]\w*)\s*\(")
SEEDISH = re.compile(r"seed|salt|split|mix64", re.IGNORECASE)

SALT_DECL = re.compile(r"\b(k\w*SeedSalt)\b")
IDENT = re.compile(r"[A-Za-z_]\w*")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literal *contents*, preserving
    offsets and newlines so line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j = j + 2 if text[j] == "\\" else j + 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


def balance(text, start, open_ch, close_ch):
    """Index one past the matching close for the open bracket at `start`."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        elif open_ch == "<" and c in ";{":
            return -1  # not a template argument list after all
        i += 1
    return -1


class SourceFile:
    def __init__(self, root, rel):
        self.rel = rel
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            self.raw = f.read()
        self.text = strip_comments_and_strings(self.raw)
        self.raw_lines = self.raw.split("\n")
        self.newlines = [m.start() for m in re.finditer("\n", self.text)]

    def line_of(self, offset):
        return bisect.bisect_right(self.newlines, offset - 1) + 1

    def has_justification(self, line):
        lo = max(0, line - 4)
        return any("det:" in self.raw_lines[k] for k in range(lo, line))


def unordered_vars(sf):
    """Names declared (anywhere in the file) with an unordered_map/set type."""
    names = set()
    for m in re.finditer(r"\bunordered_(?:map|set)\s*<", sf.text):
        close = balance(sf.text, m.end() - 1, "<", ">")
        if close == -1:
            continue
        tail = sf.text[close:close + 160]
        dm = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_]\w*)\s*[;={(,)\[]",
                      tail)
        if dm and dm.group(1) not in ("const", "final", "override"):
            names.add(dm.group(1))
    return names


def range_for_headers(sf):
    """Yield (line, container_expr) for every range-based for in the file."""
    for m in re.finditer(r"\bfor\s*\(", sf.text):
        close = balance(sf.text, m.end() - 1, "(", ")")
        if close == -1:
            continue
        header = sf.text[m.end():close - 1]
        if ";" in header:
            continue
        depth = 0
        split = -1
        for i, c in enumerate(header):
            if c in "(<[{":
                depth += 1
            elif c in ")>]}":
                depth -= 1
            elif c == ":" and depth == 0:
                if i > 0 and header[i - 1] == ":":
                    continue
                if i + 1 < len(header) and header[i + 1] == ":":
                    continue
                split = i
                break
        if split == -1:
            continue
        yield sf.line_of(m.start()), header[split + 1:]


class Linter:
    def __init__(self, allowlist):
        self.allowlist = allowlist  # set of (rule, path, token)
        self.used_allow = set()
        self.findings = []

    def report(self, sf, line, rule, token, message, hint):
        key = (rule, sf.rel, token)
        if key in self.allowlist:
            self.used_allow.add(key)
            if not sf.has_justification(line):
                self.findings.append(
                    (sf.rel, line, "DET901",
                     "allowlisted site '%s' (%s) has no `// det:` "
                     "justification comment" % (token, rule),
                     "state *why* the site is order-independent in a "
                     "`// det: ...` comment on or just above the line"))
            return
        self.findings.append((sf.rel, line, rule, message, hint))

    # ------------------------------------------------------------- rules
    def lint_file(self, sf, member_vars_from=None, pair_text=""):
        uvars = unordered_vars(sf)
        if member_vars_from is not None:
            uvars |= member_vars_from
        self.rule_unordered_iteration(sf, uvars)
        self.rule_banned_sources(sf)
        self.rule_pointer_keys(sf)
        self.rule_rng_discipline(sf, pair_text)
        self.rule_parallel_float(sf)
        return uvars

    def rule_unordered_iteration(self, sf, uvars):
        # Only whole-object iteration is order-sensitive: `m[key]` /
        # `m.at(key)` range-fors walk the *mapped* value, not the map.
        whole = re.compile(r"^(?:\w+(?:\.|->))*([A-Za-z_]\w*)$")
        for line, container in range_for_headers(sf):
            m = whole.match(container.strip())
            if m and m.group(1) in uvars:
                self.report(
                    sf, line, "DET001", m.group(1),
                    "range-for over unordered container '%s' — "
                    "iteration order is unspecified" % m.group(1),
                    "iterate a sorted vector of keys instead, or "
                    "allowlist the audited site in "
                    "tools/det_lint_allow.txt")
        for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\.\s*c?r?begin\s*\(", sf.text):
            if m.group(1) in uvars:
                self.report(
                    sf, sf.line_of(m.start()), "DET001", m.group(1),
                    "iterator walk over unordered container '%s' — "
                    "visit order is unspecified" % m.group(1),
                    "materialize + sort before iterating, or allowlist "
                    "the audited site")

    def rule_banned_sources(self, sf):
        for token, rx, why in BANNED_SOURCES:
            for m in rx.finditer(sf.text):
                self.report(
                    sf, sf.line_of(m.start()), "DET002", token,
                    why + " — banned outside audited instrumentation sites",
                    "derive randomness from the TrialSpec seed path and "
                    "timestamps from sim vtime; allowlist pure "
                    "instrumentation")

    def rule_pointer_keys(self, sf):
        for m in re.finditer(
                r"\b(?:unordered_)?(?:map|set)\s*<\s*[^,<>;]*\*", sf.text):
            self.report(
                sf, sf.line_of(m.start()), "DET003", "pointer-key",
                "container keyed by a pointer — ASLR makes ordering and "
                "hashing run-dependent",
                "key by a stable id (NodeId, index) instead")

    def rule_rng_discipline(self, sf, pair_text=""):
        if sf.rel.replace(os.sep, "/").endswith("support/prng.h"):
            return
        for m in STD_RANDOM.finditer(sf.text):
            self.report(
                sf, sf.line_of(m.start()), "DET004", m.group(1),
                "std::%s has an implementation-defined stream" % m.group(1),
                "use support::Rng seeded from the TrialSpec seed path")
        for m in re.finditer(r"\bRng\s+([A-Za-z_]\w*)\s*;", sf.text):
            # A bare member declaration (`Rng rng_;`) is fine when the
            # header/source pair seeds it in a ctor init-list with a
            # seed-derived expression (`rng_(seed ^ kSalt)`).
            init = re.compile(r"\b%s\s*\(([^()]*)\)" % re.escape(m.group(1)))
            if any(SEEDISH.search(im.group(1) or "")
                   for text in (sf.text, pair_text)
                   for im in init.finditer(text)):
                continue
            self.report(
                sf, sf.line_of(m.start()), "DET004", m.group(1),
                "Rng '%s' is default-seeded — every stream must derive "
                "from a seed/salt expression" % m.group(1),
                "thread the TrialSpec seed (xor a distinct salt) into "
                "the constructor")
        for m in RNG_CTOR.finditer(sf.text):
            close = balance(sf.text, m.end() - 1, "(", ")")
            if close == -1:
                continue
            args = sf.text[m.end():close - 1]
            if args.strip() and SEEDISH.search(args):
                continue
            what = ("default-seeded" if not args.strip()
                    else "seeded off the trial path")
            self.report(
                sf, sf.line_of(m.start()), "DET004", m.group(1),
                "Rng '%s' is %s — every stream must derive from a "
                "seed/salt expression" % (m.group(1), what),
                "thread the TrialSpec seed (xor a distinct salt) into "
                "the constructor")

    def rule_parallel_float(self, sf):
        floats = set(re.findall(r"\b(?:double|float)\s+([A-Za-z_]\w*)",
                                sf.text))
        if not floats:
            return
        for m in re.finditer(r"\bparallel_for\s*\(", sf.text):
            close = balance(sf.text, m.end() - 1, "(", ")")
            if close == -1:
                continue
            body = sf.text[m.end():close - 1]
            for am in re.finditer(r"\b([A-Za-z_]\w*)\s*[+\-]=", body):
                if am.group(1) in floats:
                    self.report(
                        sf, sf.line_of(m.end() + am.start()), "DET006",
                        am.group(1),
                        "float accumulation into '%s' inside a parallel_for "
                        "callback — summation order depends on thread "
                        "interleaving" % am.group(1),
                        "accumulate per-index into a vector and reduce "
                        "sequentially after the join")

    # ------------------------------------------------- cross-file: salts
    def rule_salt_registry(self, files):
        decls = {}    # salt -> (rel, line, is_constexpr)
        pinned = set()  # frozenset({a, b}) pairs asserted distinct
        pair_rx = re.compile(r"^\s*(k\w*SeedSalt)\s*!=\s*(k\w*SeedSalt)\s*$")
        for sf in files:
            for m in SALT_DECL.finditer(sf.text):
                tail = sf.text[m.end():m.end() + 80]
                if re.match(r"\s*=", tail):
                    lo = max(0, m.start() - 120)
                    head = sf.text[lo:m.start()]
                    decls.setdefault(
                        m.group(1),
                        (sf.rel, sf.line_of(m.start()),
                         "constexpr" in head.split("\n")[-1]))
            for m in re.finditer(r"\bstatic_assert\s*\(", sf.text):
                close = balance(sf.text, m.end() - 1, "(", ")")
                if close == -1:
                    continue
                # Only an *exact* `a != b` assert pins a pair: a compound
                # expression (e.g. `a != (b ^ c)`) mentions the names without
                # guaranteeing their distinctness.
                pm = pair_rx.match(sf.text[m.end():close - 1])
                if pm:
                    pinned.add(frozenset({pm.group(1), pm.group(2)}))
        for salt in sorted(decls):
            rel, line, is_constexpr = decls[salt]
            if not is_constexpr:
                self.findings.append(
                    (rel, line, "DET005",
                     "%s is not declared constexpr — salts must be "
                     "compile-time constants so static_assert can pin "
                     "them" % salt,
                     "declare it `inline constexpr std::uint64_t`"))
        salts = sorted(decls)
        for i, a in enumerate(salts):
            for b in salts[i + 1:]:
                if frozenset({a, b}) in pinned:
                    continue
                rel, line, _ = decls[b]
                self.findings.append(
                    (rel, line, "DET005",
                     "no static_assert pins %s != %s — colliding salts "
                     "would silently fold two RNG streams into one" % (a, b),
                     "add `static_assert(%s != %s);` next to the other "
                     "salt-registry asserts" % (a, b)))

    def stale_allowlist(self):
        for rule, path, token in sorted(self.allowlist - self.used_allow):
            self.findings.append(
                (path, 0, "DET900",
                 "allowlist entry '%s %s %s' matches no site" %
                 (rule, path, token),
                 "the audited site is gone — delete the entry from the "
                 "allowlist"))


def load_allowlist(path):
    entries = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                sys.stderr.write(
                    "det_lint: %s:%d: malformed allowlist entry (want "
                    "`RULE PATH TOKEN`)\n" % (path, lineno))
                sys.exit(2)
            entries.add((parts[0], parts[1].replace("/", os.sep), parts[2]))
    return {(r, p.replace(os.sep, "/"), t) for r, p, t in entries}


def collect_files(root, scan_dirs):
    rels = []
    for d in scan_dirs:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in names:
                if name.endswith(EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    ap.add_argument("--scan", nargs="*", default=None,
                    help="directories under root to scan (default: %s)" %
                    " ".join(SCAN_DIRS_DEFAULT))
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: tools/det_lint_allow.txt "
                    "under root)")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    scan_dirs = args.scan if args.scan is not None else SCAN_DIRS_DEFAULT
    allow_path = args.allowlist or os.path.join(root, "tools",
                                                "det_lint_allow.txt")

    linter = Linter(load_allowlist(allow_path))
    files = []
    by_rel = {}
    for rel in collect_files(root, scan_dirs):
        sf = SourceFile(root, rel)
        files.append(sf)
        by_rel[rel] = sf

    # Member containers are declared in headers and iterated in the paired
    # .cpp: fold the header's unordered names into the sibling source file.
    header_vars = {rel: unordered_vars(sf) for rel, sf in by_rel.items()
                   if rel.endswith(".h")}
    for sf in files:
        inherited = set()
        pair_text = ""
        if sf.rel.endswith(".cpp"):
            paired = sf.rel[:-len(".cpp")] + ".h"
            inherited = header_vars.get(paired, set())
        else:
            paired = sf.rel[:-len(".h")] + ".cpp"
        if paired in by_rel:
            pair_text = by_rel[paired].text
        linter.lint_file(sf, inherited, pair_text)

    linter.rule_salt_registry(files)
    linter.stale_allowlist()

    if not linter.findings:
        print("det_lint: %d files clean" % len(files))
        return 0
    for rel, line, rule, message, hint in sorted(linter.findings):
        print("%s:%d: %s: %s" % (rel, line, rule, message))
        print("    hint: %s" % hint)
    print("det_lint: %d finding(s) in %d files" %
          (len(linter.findings), len(files)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
