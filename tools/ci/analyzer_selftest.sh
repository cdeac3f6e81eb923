#!/bin/sh
# Analyzer self-test: every deliberately-broken fixture under
# tools/lint/fixtures must make its analyzer exit 1 *and* name the
# expected rule.  This is the canary for the analyzers themselves — a
# race/flow/units binary that silently stopped finding anything would
# otherwise keep CI green forever.  The same holds for the compiler's
# warning 70, which lib/dune turns into the missing-.mli error: a
# throwaway dune project with a copy of lib/dune and one module without
# an interface must fail to build.
#
# Layout: each fixture is copied into a throwaway tree shaped like the
# workspace (lib/core/...), because the zone rules key on that relative
# layout; the fixtures are compiled with the toolchain's own
# ocamlc -bin-annot, exactly as the unit suites in test/test_race.ml
# and test/test_flow.ml do.

set -eu

say() { printf '== %s\n' "$*"; }

cd "$(dirname "$0")/../.."

fixtures=tools/lint/fixtures
race=_build/default/tools/lint/pftk_race.exe
flow=_build/default/tools/lint/pftk_flow.exe
units=_build/default/tools/lint/pftk_units.exe

for exe in "$race" "$flow" "$units"; do
  if [ ! -x "$exe" ]; then
    echo "analyzer self-test: missing $exe (run dune build first)" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# stage <tree> <fixture>... : copy fixtures to $tmp/<tree>/lib/core and
# compile any .ml/.mli (interfaces first, so the .cmi exists).
stage() {
  _tree=$tmp/$1
  shift
  mkdir -p "$_tree/lib/core"
  for _f in "$@"; do
    cp "$fixtures/$_f" "$_tree/lib/core/"
  done
  for _f in "$@"; do
    case $_f in
    *.mli) (cd "$_tree" && ocamlc -bin-annot -w -a -I lib/core -c "lib/core/$_f") ;;
    esac
  done
  for _f in "$@"; do
    case $_f in
    *.mli) ;;
    *.ml) (cd "$_tree" && ocamlc -bin-annot -w -a -I lib/core -c "lib/core/$_f") ;;
    esac
  done
  printf '%s\n' "$_tree"
}

# expect <rule> <exe> <root>... : the analyzer must exit exactly 1 on
# the broken tree and its report must carry the [rule] tag.
expect() {
  _rule=$1
  shift
  set +e
  _out=$("$@" 2>/dev/null)
  _st=$?
  set -e
  if [ "$_st" -ne 1 ]; then
    echo "analyzer self-test: '$*' exited $_st on a broken tree (wanted 1, rule $_rule)" >&2
    exit 1
  fi
  case $_out in
  *"[$_rule]"*) say "  $_rule trigger caught" ;;
  *)
    echo "analyzer self-test: '$*' exited 1 without reporting $_rule:" >&2
    printf '%s\n' "$_out" >&2
    exit 1
    ;;
  esac
}

say "pftk-race must fail on the R3, R4 and L3 fixtures"
tree=$(stage race_r3 race_r3.ml)
expect R3 "$race" "$tree"
tree=$(stage race_r4 race_r4.ml)
expect R4 "$race" "$tree"
tree=$(stage lint_l3 lint_l3.ml)
expect L3 "$race" "$tree"

say "pftk-flow must fail on each F-rule fixture"
tree=$(stage flow_f1 flow_f1.ml)
expect F1 "$flow" "$tree"
tree=$(stage flow_f2 flow_f2.ml)
expect F2 "$flow" "$tree"
tree=$(stage flow_f3 flow_f3.ml)
expect F3 "$flow" "$tree"
tree=$(stage flow_f4 flow_f4.mli flow_f4.ml)
expect F4 "$flow" "$tree"

say "pftk-units must fail on each U-rule fixture"
tree=$(stage units_u1 units_u1.ml)
expect U1 "$units" "$tree"
tree=$(stage units_u2 units_u2.ml)
expect U2 "$units" "$tree"
tree=$(stage units_u3 units_u3.mli units_u3.ml)
expect U3 "$units" "$tree"
tree=$(stage units_u4 units_u4.ml)
expect U4 "$units" "$tree"

say "a lib/ module without an .mli must fail the build (warning 70)"
w70=$tmp/w70
mkdir -p "$w70/lib/core"
printf '(lang dune 3.7)\n' >"$w70/dune-project"
cp lib/dune "$w70/lib/dune"
printf '(library\n (name canary))\n' >"$w70/lib/core/dune"
printf 'let x = 1\n' >"$w70/lib/core/canary.ml"
set +e
_out=$(dune build --root "$w70" 2>&1)
_st=$?
set -e
if [ "$_st" -eq 0 ]; then
  echo "analyzer self-test: a lib/ module without an .mli built cleanly" >&2
  exit 1
fi
case $_out in
*"warning 70"*) say "  missing .mli caught" ;;
*)
  echo "analyzer self-test: the canary build failed without warning 70:" >&2
  printf '%s\n' "$_out" >&2
  exit 1
  ;;
esac

say "analyzer self-test passed"
