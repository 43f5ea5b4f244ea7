#!/usr/bin/env python3
"""Mechanical checks for this repo's decided API contracts.

Each rule here is a contract that was settled in a past change and must
not silently regress (ROADMAP "decided contracts"). The checks are pure
text scans — no compiler needed — so they run in well under five
seconds and are wired into CI ahead of the build:

  1. no-syncvar        The deprecated SyncVar shim layer is deleted;
                       the identifier must not reappear in code.
  2. no-scheme-switch  Backends are looked up through the string-keyed
                       BackendRegistry; `case Scheme::` dispatch is
                       allowed only in the name-mapping table
                       (src/system/config.cc).
  3. callback-bound    The kernel's event callback is an InplaceCallback
                       whose capacity is single-sourced in
                       src/sim/event_queue.hh; other files must use the
                       EventQueue::Callback alias, never instantiate
                       InplaceCallback<N> with their own bound.
  4. no-std-function   std::function allocates per capture and is banned
                       from simulation code (src/); the registry factory
                       and the cold stats visitor are the only allowed
                       uses. Bench/test driver code is exempt.
  5. header-hygiene    Every header under src/ carries an include guard
                       derived from its path (SYNCRON_<DIR>_<NAME>_HH),
                       no `#pragma once`, and no `../` relative
                       includes (all includes are src/-rooted).
  6. persist-scope     The PM persist hooks (durability::PersistHook
                       and its persist*() calls) appear only in
                       src/durability/ and src/syncron/ — the engine is
                       the sole component that mirrors state into the
                       PM domain; other simulation code goes through
                       SystemConfig::persistMode and the durability
                       manager.
  7. varint-home      LEB128 encoding and decoding live in
                       src/trace/varint.hh only: the SYNCTRC and
                       SYNCDUR containers share one codec, so no other
                       file under src/ may define a *Varint function or
                       spell out the `& 0x7f` / `| 0x80` byte loop.
                       Tests are exempt (they build raw varints by hand
                       to forge corrupt inputs).
  8. post-scope        Cross-unit messages enter the event queue only
                       through Machine::postMessage, which pays the
                       source crossbar and link and derives the lane
                       from the source unit. EventQueue::post() and the
                       transport-hook setter (setTransport) appear only
                       in src/sim/event_queue.* and
                       src/system/machine.cc, so nothing skips the
                       destination crossbar or forges a lane. A post()
                       call is recognised by its event-queue receiver
                       (eq, eq_, eq(), *Eq), which keeps the semaphore
                       post() out of scope. Tests are exempt.

Usage:
  lint_contracts.py [--root DIR]   lint the tree, exit 1 on violations
  lint_contracts.py --self-test    prove each rule still fires on a
                                   seeded violation, exit 1 if any
                                   rule has gone blind
"""

import argparse
import os
import re
import sys
import tempfile

CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
CODE_EXTS = (".cc", ".hh")

SYNCVAR_RE = re.compile(r"\bSyncVar\b")
SCHEME_SWITCH_RE = re.compile(r"\bcase\s+Scheme::")
INPLACE_INST_RE = re.compile(r"\bInplaceCallback\s*<")
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
PERSIST_CALL_RE = re.compile(r"(\.|->)\s*persist[A-Z]\w*\s*\(")
PERSIST_HOOK_RE = re.compile(r"\bPersistHook\b")
VARINT_BITS_RE = re.compile(r"[&|]\s*0x(7f|80)\b", re.IGNORECASE)
VARINT_DEF_RE = re.compile(r"\b(\w*Varint)\s*\([^()]*\)\s*(const\s*)?\{")
QUEUE_POST_RE = re.compile(
    r"\b((eq|\w*Eq)_?(\(\))?\s*(\.|->)\s*post|EventQueue::post)\s*\(")
SET_TRANSPORT_RE = re.compile(r"\bsetTransport\s*\(")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once", re.MULTILINE)
RELATIVE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"\.\./', re.MULTILINE)
GUARD_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)", re.MULTILINE)

# Files (repo-relative, '/'-separated) where a rule is deliberately
# allowed. Keep each entry justified.
SCHEME_SWITCH_ALLOW = {
    "src/system/config.cc",  # Scheme <-> name mapping table
}
INPLACE_INST_ALLOW = {
    "src/common/inplace_callback.hh",  # the type itself
    "src/sim/event_queue.hh",          # the kernel's Callback alias
}
STD_FUNCTION_ALLOW = {
    "src/common/inplace_callback.hh",  # doc comment contrasting the two
    "src/common/stats.hh",             # cold end-of-run visitor
    "src/common/stats.cc",
    "src/sync/registry.hh",            # backend factory, cold
}
# The single home of the LEB128 codec.
VARINT_HOME = "src/trace/varint.hh"
# Directory prefixes where the persist hooks legitimately live: the
# durability subsystem defines them, the SynCron engine invokes them.
PERSIST_SCOPE_ALLOW_PREFIXES = ("src/durability/", "src/syncron/")
# The event queue defines post() and its transport hook; Machine is the
# one caller (postMessage() and the hook that pays the last leg).
POST_SCOPE_ALLOW = {
    "src/sim/event_queue.hh",
    "src/sim/event_queue.cc",
    "src/system/machine.cc",
}


def code_files(root):
    for d in CODE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if name.endswith(CODE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def line_of(text, match):
    return text.count("\n", 0, match.start()) + 1


def expected_guard(rel):
    # src/sync/api.hh -> SYNCRON_SYNC_API_HH
    stem = rel[len("src/"):]
    return "SYNCRON_" + re.sub(r"[/.]", "_", stem).upper()


def lint_tree(root):
    violations = []

    def report(rel, line, rule, msg):
        violations.append("%s:%d: [%s] %s" % (rel, line, rule, msg))

    for rel in code_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()

        for m in SYNCVAR_RE.finditer(text):
            report(rel, line_of(text, m), "no-syncvar",
                   "SyncVar reintroduced - use the typed handles "
                   "(sync::Lock/Barrier/Semaphore/CondVar)")

        if rel not in SCHEME_SWITCH_ALLOW:
            for m in SCHEME_SWITCH_RE.finditer(text):
                report(rel, line_of(text, m), "no-scheme-switch",
                       "backend dispatch on Scheme enum - go through "
                       "BackendRegistry (string-keyed)")

        if rel not in INPLACE_INST_ALLOW:
            for m in INPLACE_INST_RE.finditer(text):
                report(rel, line_of(text, m), "callback-bound",
                       "ad-hoc InplaceCallback<N> instantiation - use "
                       "sim::EventQueue::Callback so the capture bound "
                       "stays single-sourced")

        if rel.startswith("src/") and rel not in STD_FUNCTION_ALLOW:
            for m in STD_FUNCTION_RE.finditer(text):
                report(rel, line_of(text, m), "no-std-function",
                       "std::function in simulation code - use "
                       "InplaceCallback (alloc-free) or a template "
                       "parameter")

        if (rel.startswith("src/")
                and not rel.startswith(PERSIST_SCOPE_ALLOW_PREFIXES)):
            for m in PERSIST_CALL_RE.finditer(text):
                report(rel, line_of(text, m), "persist-scope",
                       "persist hook invoked outside src/durability/ + "
                       "src/syncron/ - PM mirroring is the engine's "
                       "job; configure SystemConfig::persistMode "
                       "instead")
            for m in PERSIST_HOOK_RE.finditer(text):
                report(rel, line_of(text, m), "persist-scope",
                       "PersistHook referenced outside src/durability/ "
                       "+ src/syncron/ - wire through "
                       "DurabilityManager, not the raw hook")

        if rel.startswith("src/") and rel != VARINT_HOME:
            for m in VARINT_BITS_RE.finditer(text):
                report(rel, line_of(text, m), "varint-home",
                       "LEB128 byte loop outside %s - use VarintWriter / "
                       "VarintCursor" % VARINT_HOME)
            for m in VARINT_DEF_RE.finditer(text):
                report(rel, line_of(text, m), "varint-home",
                       "varint function '%s' defined outside %s - one "
                       "codec for every container" % (m.group(1),
                                                      VARINT_HOME))

        if not rel.startswith("tests/") and rel not in POST_SCOPE_ALLOW:
            for m in QUEUE_POST_RE.finditer(text):
                report(rel, line_of(text, m), "post-scope",
                       "EventQueue::post() outside the queue and "
                       "Machine - send through Machine::postMessage so "
                       "the destination crossbar is paid and the lane "
                       "is the source unit's")
            for m in SET_TRANSPORT_RE.finditer(text):
                report(rel, line_of(text, m), "post-scope",
                       "transport hook installed outside Machine - one "
                       "hook per queue, set by Machine's constructor")

        if rel.startswith("src/") and rel.endswith(".hh"):
            m = PRAGMA_ONCE_RE.search(text)
            if m:
                report(rel, line_of(text, m), "header-hygiene",
                       "#pragma once - use the SYNCRON_*_HH guard")
            m = GUARD_RE.search(text)
            want = expected_guard(rel)
            if not m:
                report(rel, 1, "header-hygiene",
                       "missing include guard (expected %s)" % want)
            elif m.group(1) != want:
                report(rel, line_of(text, m), "header-hygiene",
                       "guard %s does not match path (expected %s)"
                       % (m.group(1), want))

        for m in RELATIVE_INCLUDE_RE.finditer(text):
            report(rel, line_of(text, m), "header-hygiene",
                   '"../" include - includes are src/-rooted')

    return violations


# One minimal fixture per rule; the self-test plants each in a scratch
# tree and requires the rule to fire. A rule that no longer fires on its
# own fixture has gone blind (e.g. a refactor broke its regex).
FIXTURES = [
    ("no-syncvar", "src/fixture.cc",
     "SyncVar v = api.create(addr);\n"),
    ("no-scheme-switch", "src/fixture.cc",
     "int f(Scheme s){switch(s){case Scheme::Ideal: return 1;}return 0;}\n"),
    ("callback-bound", "src/fixture.cc",
     "common::InplaceCallback<128> cb;\n"),
    ("no-std-function", "src/fixture.cc",
     "#include <functional>\nstd::function<void()> f;\n"),
    ("header-hygiene", "src/fixture.hh",
     "#pragma once\n#include \"../common/log.hh\"\n"),
    ("varint-home", "src/fixture.cc",
     "void\nputVarint(std::string &b, std::uint64_t v)\n{\n"
     "    while (v >= 0x80) { b.push_back((v & 0x7f) | 0x80); v >>= 7; }\n"
     "}\n"),
    ("persist-scope", "src/fixture.cc",
     "void f(durability::PersistHook &h) { h.persistCounter(0, 0); }\n"),
    ("post-scope", "src/fixture.cc",
     "void f(sim::EventQueue &eq) {\n"
     "    eq.setTransport(1, nullptr, hook);\n"
     "    eq.post(9, 1, 0, 64, [] {});\n}\n"),
]


def self_test():
    failures = []
    for rule, rel, body in FIXTURES:
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
            hits = [v for v in lint_tree(scratch) if "[%s]" % rule in v]
            if hits:
                print("self-test: %-17s fires (%d hit%s)"
                      % (rule, len(hits), "s" if len(hits) > 1 else ""))
            else:
                failures.append(rule)
                print("self-test: %-17s BLIND - fixture not flagged"
                      % rule)
    if failures:
        print("lint_contracts self-test FAILED: %s" % ", ".join(failures),
              file=sys.stderr)
        return 1
    print("lint_contracts self-test OK (%d rules)" % len(FIXTURES))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="lint the repo's decided API contracts")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule fires on a seeded violation")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print("lint_contracts: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    print("lint_contracts: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
