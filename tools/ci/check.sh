#!/bin/sh
# One-command local CI for the pftk repo.  Runs, in order:
#
#   1. dune build          -- compiles everything at -warn-error +a
#                             (lib/ modules without an .mli fail with
#                             warning 70), links the examples and, via
#                             the default alias, runs @analyze
#                             (pftk-analyze: race rules R1-R4, L2, L3,
#                             L5, flow rules F1-F4, units rules U1-U4)
#   2. pftk-analyze (timed)
#                          -- the analyzer executable run directly over
#                             lib bin examples, so its time is measured
#                             even when dune has cached @analyze
#   3. analyzer self-test  -- the deliberately-broken fixtures under
#                             tools/lint/fixtures must each make
#                             pftk-analyze exit 1, and a module without an
#                             .mli must fail a build under a copy of
#                             lib/dune (tools/ci/analyzer_selftest.sh)
#   4. dune runtest        -- every alcotest/qcheck suite
#   5. equivalence suite   -- the online/post-hoc agreement contract:
#                             every streaming summary must match
#                             Analyzer.summarize exactly (avg_t0 within
#                             1e-9 relative) on all 24 Table II paths,
#                             packet-level traces, prefixes, and
#                             disk-replayed streams
#   6. pftk selfcheck      -- 200 seeded cases through the invariant
#                             catalog (C1-C12): differential model
#                             checks, inverse round-trips, serializer
#                             round-trips, online/post-hoc agreement,
#                             batch/scalar bit-equality
#   7. dune build --profile release
#                          -- the optimized build the benchmarks use
#   8. --jobs identity     -- `pftk all --quick` on the release binary
#                             must print byte-identical stdout at
#                             --jobs 1 and --jobs 2 (every artifact),
#                             and the --jobs 1 stdout must match the
#                             pinned digest of the reference output
#   9. trace format       -- a one-hour trace written by
#                             `pftk simulate --dump-trace` and the
#                             stdout of `pftk live --trace` (with and
#                             without --infer) and `pftk analyze
#                             --trace` reading it must match their
#                             pinned digests; the same trace with CRLF
#                             line ends and a leading comment must
#                             replay to the same `live` stdout
#  10. serve format        -- a generated 200 000-line query stream
#                             through `pftk serve --batch`: the input,
#                             stdout and stderr must match their
#                             pinned digests
#  11. ablations           -- the whole stdout of `pftk ablations` (the
#                             paper's design choices varied one at a
#                             time, fixed seeds) must match its pinned
#                             digest
#  12. batch smoke         -- timed bench-batch runs on the release
#                             binary asserting the batch engine's
#                             speedup floors and bitwise equality, and
#                             that a jobs=1 pass of every kernel
#                             allocates 0 minor words per row
#  13. meanfield smoke     -- the mean-field backend on the release
#                             binary: a 100000-flow RED equilibrium
#                             held to a sub-second solver budget, the
#                             quick netsim cross-validation, and the
#                             stdout of `pftk redstability` (at --jobs 1
#                             and 2) and of `pftk meanfield` under each
#                             drop law, which must match pinned digests
#
# Each phase reports its wall-clock time, to the millisecond where
# `date +%s%N` works and to the second elsewhere.  Exits non-zero at the
# first failure.  Run from anywhere inside the workspace; dune locates
# the project root itself.

set -eu

say() { printf '== %s\n' "$*"; }

# POSIX sh has no SECONDS.  date +%s is universal; %N (nanoseconds) is a
# GNU extension that other dates print back as a literal N.
now_ns() {
  _ns=$(date +%s%N)
  case $_ns in
  *N) echo "$(($(date +%s) * 1000000000))" ;;
  *) echo "$_ns" ;;
  esac
}

phase() {
  _label=$1
  shift
  say "$_label"
  _t0=$(now_ns)
  "$@"
  _ms=$((($(now_ns) - _t0) / 1000000))
  say "$(printf '%s: done in %d.%03ds' "$_label" $((_ms / 1000)) $((_ms % 1000)))"
}

phase "dune build (default alias: compile + examples + @analyze)" dune build

# The analyzer run directly, from the workspace root: dune skips the
# @analyze action when nothing changed since the last build, so timing
# `dune build @analyze` would time only dune's start-up.
analyze() {
  (cd "$(dirname "$0")/../.." &&
    _build/default/tools/lint/pftk_analyze.exe lib bin examples)
}

phase "pftk-analyze lib bin examples (rules R1-R4, L2, L3, L5, F1-F4, U1-U4)" \
  analyze

phase "analyzer self-test (broken fixtures must fail)" \
  sh "$(dirname "$0")/analyzer_selftest.sh"

phase "dune runtest" dune runtest

phase "equivalence suite (online vs post-hoc analyzer)" \
  dune exec test/test_online.exe -- test equivalence

phase "pftk selfcheck (200 cases, seed 42)" \
  dune exec bin/pftk.exe -- selfcheck --cases 200 --seed 42

phase "dune build --profile release" dune build --profile release

# The determinism contract end to end: every artifact `pftk all` prints
# (70 322 bytes with --quick, about 2 s for both runs on two cores) must
# not depend on how many domains computed it.  Comparing the two job
# counts cannot catch a change that moves both alike, such as a different
# random stream, so the --jobs 1 output must also match the digest of the
# reference output (default seed 42; taken with OCaml 5.1.1 on x86-64
# Linux, whose float formatting it depends on).  On a mismatch both
# outputs are kept for diffing.
all_quick_md5=e4b451dce85c9ebb1faf8a9fbe238bea

md5_of() {
  if command -v md5sum >/dev/null 2>&1; then
    md5sum <"$1" | cut -d ' ' -f 1
  else
    md5 -q "$1"
  fi
}

all_jobs_identity() {
  _out=$(mktemp -d)
  dune exec --profile release bin/pftk.exe -- all --quick --jobs 1 >"$_out/jobs1"
  dune exec --profile release bin/pftk.exe -- all --quick --jobs 2 >"$_out/jobs2"
  if ! cmp "$_out/jobs1" "$_out/jobs2"; then
    say "pftk all stdout differs between --jobs 1 and 2; kept in $_out"
    return 1
  fi
  _md5=$(md5_of "$_out/jobs1")
  if [ "$_md5" != "$all_quick_md5" ]; then
    say "pftk all stdout has MD5 $_md5, expected $all_quick_md5; kept in $_out"
    return 1
  fi
  rm -r "$_out"
}

phase "pftk all --quick: --jobs 1 and --jobs 2 byte-identical, pinned digest" \
  all_jobs_identity

# The trace text format end to end: the writer's bytes (85 872 events,
# 4 455 407 bytes) and what the reader makes of them, through both replay
# modes of `pftk live` and through `pftk analyze` (whose line starts with
# the path, dropped before the digest).  The trace rewritten with CRLF
# line ends under a `#` comment must replay to the same stdout: the
# reader trims the CR and skips the comment.  Unit tests compare the
# writer and reader with their previous Printf and split_on_char
# spellings; these digests catch a change to either that alters a byte
# of a real trace.  On a mismatch the files are kept for diffing.
trace_md5=b28d0413b9b1e98b1a9030c9f826bc34
trace_live_md5=50930d8b04748f0e324ee2e6b8b54110
trace_infer_md5=4321f9cc7ae11be743b3a0b27cad7976
trace_analyze_md5=41da18672625364a3e155d73f4cf094b

trace_format_digests() {
  _out=$(mktemp -d)
  dune exec --profile release bin/pftk.exe -- simulate \
    --dump-trace "$_out/trace" --duration 3600 --seed 42 --loss 0.02 >/dev/null
  dune exec --profile release bin/pftk.exe -- live --trace "$_out/trace" >"$_out/live"
  dune exec --profile release bin/pftk.exe -- live --trace "$_out/trace" --infer >"$_out/infer"
  dune exec --profile release bin/pftk.exe -- analyze --trace "$_out/trace" |
    sed "s|^$_out/||" >"$_out/analyze"
  awk 'BEGIN { printf "# the same trace, CRLF\r\n" } { printf "%s\r\n", $0 }' \
    "$_out/trace" >"$_out/crlf"
  dune exec --profile release bin/pftk.exe -- live --trace "$_out/crlf" >"$_out/live-crlf"
  _md5=$(md5_of "$_out/trace")
  _live_md5=$(md5_of "$_out/live")
  _infer_md5=$(md5_of "$_out/infer")
  _analyze_md5=$(md5_of "$_out/analyze")
  _crlf_md5=$(md5_of "$_out/live-crlf")
  if [ "$_md5" != "$trace_md5" ] || [ "$_live_md5" != "$trace_live_md5" ] ||
    [ "$_infer_md5" != "$trace_infer_md5" ] || [ "$_analyze_md5" != "$trace_analyze_md5" ] ||
    [ "$_crlf_md5" != "$trace_live_md5" ]; then
    say "trace MD5 $_md5 (expected $trace_md5), live stdout MD5 $_live_md5 (expected $trace_live_md5), live --infer $_infer_md5 (expected $trace_infer_md5), analyze $_analyze_md5 (expected $trace_analyze_md5), live on the CRLF copy $_crlf_md5 (expected $trace_live_md5); kept in $_out"
    return 1
  fi
  rm -r "$_out"
}

phase "trace format: pftk simulate --dump-trace, live --trace and analyze --trace, pinned digests" \
  trace_format_digests

# The serve text format end to end: what `pftk serve --batch` prints for
# a 200 000-line stream (4 549 482 bytes) and which lines it rejects.
# Unit tests compare the scanner, the writer and the stream with their
# previous split_fields, float_of_string and Printf spellings; these
# digests catch a change to any of them that alters a byte.  The stream
# mixes the decimal spellings the scanner decodes itself with the ones it
# leaves to float_of_string (+, E, 0x, _), rates on both sides of the
# writer's fast range (1.8e+23, 9.7e-08), and all seven rejection routes
# (1 804 lines).  The awk script uses integers only, so every awk should
# write the same bytes; the input digest is checked first, so one that
# does not says so.  On a mismatch the files are kept for diffing.
serve_input_md5=9d88e6cd03b7462f7b664f63baf81e73
serve_stdout_md5=cc74947d9c20149f8f8a70209fe04397
serve_stderr_md5=a4897c7b13b201e4a5467b412911fc6e

serve_stream() {
  awk 'BEGIN {
    for (i = 1; i <= 200000; i++) {
      if (i % 97 == 0) {
        k = int(i / 97) % 8
        if (k == 0) print "0.01 0.2 2"
        else if (k == 1) print "1.5 0.2 2 8"
        else if (k == 2) print "0.01 -0.2 2 8"
        else if (k == 3) print "0.01 0.2 2 8.5"
        else if (k == 4) print "nan 0.2 2 8"
        else if (k == 5) print ""
        else if (k == 6) print "0.01 0.2 x2 8"
        else printf "0.01\t0.2  2 8\r\n"
      } else if (i % 1009 == 0) {
        printf "%d.%03de-3 1e-%d 1e-%d 0\n", 1 + i % 9, i % 1000, 18 + i % 5, 17 + i % 5
      } else if (i % 1013 == 0) {
        printf "%d.%03de-3 1e+%d 1e+%d 0\n", 1 + i % 9, i % 1000, 6 + i % 3, 7 + i % 3
      } else if (i % 11 == 0) {
        printf "+%d.%03dE-%d 0x1p-%d %d.%02d 1_0%d\n", 1 + i % 9, (i * 7919) % 1000, 1 + i % 4, 1 + i % 6, 1 + i % 7, (i * 31) % 100, i % 10
      } else {
        printf "%d.%03de-%d 0.%03d %d.%02d %d\n", 1 + i % 9, (i * 7919) % 1000, 1 + i % 4, 10 + (i * 104729) % 990, 1 + i % 7, (i * 31) % 100, (i % 4 == 0) ? 0 : 8 * (i % 5)
      }
    }
  }'
}

serve_format_digests() {
  _out=$(mktemp -d)
  serve_stream >"$_out/input"
  _md5=$(md5_of "$_out/input")
  if [ "$_md5" != "$serve_input_md5" ]; then
    say "serve input MD5 $_md5, expected $serve_input_md5: this awk writes another stream; kept in $_out"
    return 1
  fi
  dune exec --profile release bin/pftk.exe -- serve --batch --file "$_out/input" \
    >"$_out/stdout" 2>"$_out/stderr"
  _out_md5=$(md5_of "$_out/stdout")
  _err_md5=$(md5_of "$_out/stderr")
  if [ "$_out_md5" != "$serve_stdout_md5" ] || [ "$_err_md5" != "$serve_stderr_md5" ]; then
    say "serve stdout MD5 $_out_md5 (expected $serve_stdout_md5), stderr MD5 $_err_md5 (expected $serve_stderr_md5); kept in $_out"
    return 1
  fi
  rm -r "$_out"
}

phase "serve format: pftk serve --batch on a generated stream, pinned digests" \
  serve_format_digests

# The ablation studies end to end (4 345 bytes, about 1.4 s on the release
# binary): Q-hat, eq. (33), three loss processes, stack quirks, TCP
# flavors, recovery styles, queue disciplines, cross-traffic, AIMD and
# delayed ACKs.  Every simulated row runs at a fixed seed, so the output
# has one digest (OCaml 5.1.1 on x86-64 Linux, like the others).  On a
# mismatch the output is kept for diffing.
ablations_md5=5d0ca4ce7d8169263520872afa2f9665

ablations_digest() {
  _out=$(mktemp -d)
  dune exec --profile release bin/pftk.exe -- ablations >"$_out/ablations"
  _md5=$(md5_of "$_out/ablations")
  if [ "$_md5" != "$ablations_md5" ]; then
    say "pftk ablations stdout has MD5 $_md5, expected $ablations_md5; kept in $_out"
    return 1
  fi
  rm -r "$_out"
}

phase "ablations: pftk ablations stdout, pinned digest" ablations_digest

# Speedup floors are deliberately below the measured steady-state values
# (eq. (33): ~4.3x vs its own scalar, ~13x vs the scalar full model;
# eq. (32): ~2.8x) so CI noise does not flake, while a regression to a
# boxed or rescanning inner loop (2-3x of margin) still fails.  Each run
# also bit-compares 4096 rows against the guarded scalar path.  Each
# kernel row is one call to an [@inline] body in lib/core, expanded in
# place only where the compiler reads the core's .cmx files; every
# kernel's jobs=1 pass must allocate 0 minor words per row, which a
# boxed per-row float would break.
batch_smoke() {
  _out=$(mktemp)
  if ! dune exec --profile release bin/pftk.exe -- bench-batch "$@" >"$_out"; then
    cat "$_out"
    rm "$_out"
    return 1
  fi
  cat "$_out"
  if ! grep -q '^  batch jobs=1 minor words per row: 0$' "$_out"; then
    say "bench-batch $*: the jobs=1 pass allocates per row"
    rm "$_out"
    return 1
  fi
  rm "$_out"
}

batch_zero_alloc() {
  for _model in full-approx-q td-only tfrc; do
    batch_smoke --rows 100000 --model "$_model" || return 1
  done
}

phase "batch smoke: eq. (32) kernel floor 2x, 0 words per row" \
  batch_smoke --rows 1000000 --model full --min-speedup 2

phase "batch smoke: eq. (33) vs scalar full model, floor 6x, 0 words per row" \
  batch_smoke --rows 1000000 --model approximate --scalar-model full \
  --min-speedup 6

phase "batch smoke: full-approx-q, td-only and tfrc kernels, 0 words per row" \
  batch_zero_alloc

# The scale promise of the mean-field backend: a 100000-flow RED
# equilibrium in well under a second (measured ~0.3 ms; the 0.5 s
# budget only catches a complexity regression, not noise).
phase "meanfield smoke: 100000-flow equilibrium under 0.5s" \
  dune exec --profile release bin/pftk.exe -- meanfield \
  --flows 100000 --capacity 2000000 --equilibrium-only \
  --max-solver-seconds 0.5

phase "meanfield smoke: netsim cross-validation (quick)" \
  dune exec --profile release bin/pftk.exe -- meanfield --cross-validate --quick

# The mean-field dynamics end to end: the full 12-cell RED stability
# sweep at --jobs 1 and 2, and the equilibrium report with its verdict
# under the RED, drop-tail and constant laws (default flags).  Only the
# four quick RED cells inside `pftk all --quick` pinned `Dynamics` before;
# these digests were recorded with the binary before the histogram's
# two-sweep rewrite, which had to keep every bit (OCaml 5.1.1 on x86-64
# Linux, like the others).  `pftk meanfield` times its solver on stderr,
# so only stdout is pinned.  On a mismatch the outputs are kept.
redstability_md5=df06a7839c77092c789231e40e9d7133
meanfield_red_md5=0146bc8a4685ffc0c9e60f97988f2db8
meanfield_droptail_md5=1d51f0a840c1047747e3ac937dcbeb00
meanfield_constant_md5=f89f3e0fd35ae9b020fb6f5ee24540c0

meanfield_digests() {
  _out=$(mktemp -d)
  dune exec --profile release bin/pftk.exe -- redstability --jobs 1 >"$_out/redstability1"
  dune exec --profile release bin/pftk.exe -- redstability --jobs 2 >"$_out/redstability2"
  for _law in red droptail constant; do
    dune exec --profile release bin/pftk.exe -- meanfield --law "$_law" \
      >"$_out/$_law" 2>"$_out/$_law.stderr"
  done
  _failed=0
  for _pin in "redstability1 $redstability_md5" "redstability2 $redstability_md5" \
    "red $meanfield_red_md5" "droptail $meanfield_droptail_md5" \
    "constant $meanfield_constant_md5"; do
    set -- $_pin
    _md5=$(md5_of "$_out/$1")
    if [ "$_md5" != "$2" ]; then
      say "$1 stdout has MD5 $_md5, expected $2"
      _failed=1
    fi
  done
  if [ "$_failed" -ne 0 ]; then
    say "mean-field outputs kept in $_out"
    return 1
  fi
  rm -r "$_out"
}

phase "meanfield digests: pftk redstability and meanfield stdout, pinned" \
  meanfield_digests

say "all checks passed"
