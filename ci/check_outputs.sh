#!/usr/bin/env bash
# Compare podium's output with every pinned sha256 line, exit code and
# committed BENCH file.  Run it from the repository root:
#
#     bash ci/check_outputs.sh
#
# It needs only python3 (3.10 or later) and coreutils, and it stops at the
# first check that fails.  Slowest parts on a 2-core host: verify at order
# 100000 (about 42-47 s), verify at 32000 (about 6 s) and the peo oracle
# row at its hard ceiling (about 1.35 s); the whole script takes about
# 60-70 s.
set -eo pipefail
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== verify the bundled identities at orders 300 to 100000 (MAX_ORDER), and the bundled file read through --manifest at 300"
for pin in \
    300=2fd3368c5ec4a48fc6881e02fe15dcacf0e16fdc835877f981cb3cda6247c88a \
    1000=fa9015f045011ff37354b94d1ad1865d24fe744744ea0c68bd77010a87ddae47 \
    2000=ce3ee83318fcc089e7eab9d21f89e35976c62c79d13f50ceb52c281e8a314f90 \
    4000=64d5dd33b53158a2bd06d17286c9eb55ad565080a7b5a73694fc37150cd59e61 \
    8000=6386de77662656ea5bc4306e67af3b957d9c020321449abbf8a40f5e3cb7c6e0 \
    32000=f9a3f03727b4ef3170780b74c8ae92d303b761e992e31946b1258c02a4c572de \
    100000=e9cc386133e2b82f338ea418073bdb9c4f031f0ed682c07a1a75174a6344b339; do
  order=${pin%=*}
  PYTHONPATH=src python3 -m podium.cli verify --order "$order" > "$tmp/verify-$order.txt"
  echo "${pin#*=}  $tmp/verify-$order.txt" | sha256sum --check
done
# the bundled file read through load_manifest must give the pinned 300 output too
PYTHONPATH=src python3 -m podium.cli verify --manifest src/podium/data/identities.txt --order 300 > "$tmp/verify-file-300.txt"
cmp "$tmp/verify-300.txt" "$tmp/verify-file-300.txt"

echo "== bench checksums at orders 300, 1000, 2000 and 4000 equal BENCH_6.json's"
PYTHONPATH=src python3 -m podium.cli bench --order 300 1000 2000 4000 --json "$tmp/bench.json" > /dev/null
python3 -c '
import json, sys
def checksums(path):
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    return {run["order"]: (run["pod_sha256"], run["mul_sha256"]) for run in runs}
got, pinned = checksums(sys.argv[1]), checksums("BENCH_6.json")
if sorted(got) != [300, 1000, 2000, 4000] or any(got[order] != pinned[order] for order in got):
    sys.exit(f"bench sha256 {got} differ from BENCH_6.json")
' "$tmp/bench.json"

echo "== every committed BENCH file gives the same sha256 lines at each order it shares with another"
python3 -c '
import glob, json, sys
first = {}  # order -> (pod_sha256, mul_sha256, the first file that gives them)
bad = []
for path in sorted(glob.glob("BENCH_*.json")):
    with open(path) as handle:
        for run in json.load(handle)["runs"]:
            order, got = run["order"], (run["pod_sha256"], run["mul_sha256"])
            pod, mul, where = first.setdefault(order, got + (path,))
            if (pod, mul) != got:
                bad.append(f"order {order}: {path} differs from {where}")
if len(glob.glob("BENCH_*.json")) < 2 or bad:
    sys.exit("\n".join(bad) or "fewer than two BENCH files")
'

echo "== expand two Miller-pass quotients at order 4000"
# two Miller passes and one dense product, then the same multiplied into a walked theta
quotient="poch(q^1, q^1)^9 / poch(q^3, q^3)^6"
for pin in \
    "74a93f54ce0ebfd7d08daed0836cb6828ac9f859193f061817fde6cb2f65b52c=$quotient" \
    "f592a74996cc7895626563caf8637126006ce3db644f3cee96493e723e255f6d=theta{n in Z}(1; n*n) * $quotient"; do
  PYTHONPATH=src python3 -m podium.cli expand "${pin#*=}" --order 4000 > "$tmp/miller.txt"
  echo "${pin%%=*}  $tmp/miller.txt" | sha256sum --check
done

echo "== expand gf(eo) at order 4000 through its product form and through its old bracketed form"
# the flat chain goes through the eta planner; the bracketed product is walked and inverted whole
for text in "gf(eo)" "1 / ((1 - q^1) * poch(q^2, q^2))"; do
  PYTHONPATH=src python3 -m podium.cli expand "$text" --order 4000 > "$tmp/eo.txt"
  echo "61dc8106c98058df616c4cc6307afac9fb01effb46aa014777379e9fa810f49a  $tmp/eo.txt" | sha256sum --check
done

echo "== expand two products that have no eta form at order 8000"
# no factor here has an eta form and neither product is one, so pochhammer
# builds each factor from Euler's sum; the verify pins show only that two
# sides agree, these pin the coefficients
for pin in \
    "dd124a5b566508b2410c261bc6a214b77c84d8aea9eae716d1f59914203ee06c=poch(q^3, q^4) * poch(q^1, q^5)" \
    "67c13f4927483aa16b0e6d1528797bd5c05d49079a48be04217981825ff1efdb=poch(q^2, q^1)"; do
  PYTHONPATH=src python3 -m podium.cli expand "${pin#*=}" --order 8000 > "$tmp/poch.txt"
  echo "${pin%%=*}  $tmp/poch.txt" | sha256sum --check
done

echo "== expand at order 8000 a product merged by residue class, against its Euler-sum value"
# each factor alone has no eta form, but together they are (q; q^2) =
# (q; q) / (q^2; q^2); this sha256 was pinned when each factor was built
# from Euler's sum and the two were multiplied densely
PYTHONPATH=src python3 -m podium.cli expand "poch(q^3, q^4) * poch(q^1, q^4)" --order 8000 > "$tmp/residue.txt"
echo "738a5fa1d93b6fdbdb7bfc04a3cb4c4e086ca800b0c70440b5dbcf783f8a367a  $tmp/residue.txt" | sha256sum --check

echo "== expand theta sums at order 8000, four lowered by the Jacobi triple product and two summed"
# these sha256 were pinned when every theta was summed term by term; the
# first four are eta quotients now, the last two (f(1, q^2) and
# f(q^7, q)) are not and are still summed
for pin in \
    "2b9daa3ba8ce81966784443a9f6a056190b16b4132409b7217debc46dbcc6946=theta{n in Z}(1; n*n)" \
    "0319355d2a082a8b5e7fe881fb9b6d54ae570c08cf3e153b5cdc2315a1d40af3=theta{n in N}((-1)^(ceil2(n)); (n*(n+1)) div 2)" \
    "028ce7b52b212a6c7ff40daa8297e116dc6c69b65f68348a9d70a794333fd2e0=theta{n in Z}(1; (n*(3*n+1)) div 2)" \
    "c385786f6472c4d752a4aaed2d1d33c4b793af4a8909f73b92913d81cf3c2895=gf(pod) * theta{j in N}(1; (j*(j+1)) div 2)" \
    "d5ad057dcba8df7a5c81d6edb3d67376af92f277ad5efb79306d7268b75c2d35=theta{n in Z}(1; n*n + n)" \
    "29056db5082e9e1abcfcba81f16c7efcc4c9cb94423266892a84fcabef460dbc=theta{n in Z}(1; 4*n*n + 3*n)"; do
  PYTHONPATH=src python3 -m podium.cli expand "${pin#*=}" --order 8000 > "$tmp/theta.txt"
  echo "${pin%%=*}  $tmp/theta.txt" | sha256sum --check
done

echo "== refuse a huge power of a dense base at once, exit 2 within 10 s"
# (1 - q)^k is no eta quotient, so Series.power bounds its work before the first product
nines=$(printf '9%.0s' {1..60})  # 10^60 - 1
status=0
timeout 10 env PYTHONPATH=src python3 -m podium.cli expand "(1 - q^1)^$nines" --order 200 || status=$?
if [ "$status" -ne 2 ]; then
  echo "expected exit 2, got $status"
  exit 1
fi

echo "== expand a huge power of a sparse base within 10 s"
# g = q^1000 reaches order 1000 once, so the power bound charges one factor of g:
# the result is 1 + 100000 q^1000
timeout 10 env PYTHONPATH=src python3 -m podium.cli expand "(1 + q^1000)^100000" --order 1000 > "$tmp/sparse.txt"
[ "$(tr ' ' '\n' < "$tmp/sparse.txt" | tail -n 1)" = 100000 ]
echo "502dbcbfde97443320b9a8078d6ad6ad4b138d6a9d13004b9456665daab6b4dc  $tmp/sparse.txt" | sha256sum --check

echo "== refuse one malformed text per parse error message, one stderr line and exit 2 each"
# unexpected character, unexpected token, end of input, literal too long,
# must be >= 1, unknown gf name, unbound variable, "(-" other than (-1)^,
# deeper than 100 levels and unexpected trailing, in that order
nines=$(printf '9%.0s' {1..5000})
deep=$(printf '(%.0s' {1..101})q^1$(printf ')%.0s' {1..101})
: > "$tmp/errors.txt"
for text in "poch(q^1, q^1) @ 2" "poch(q^1 q^1)" "gf(pod" "q^1^$nines" "q^0" "gf(nosuch)" \
    "theta{n in Z}(1; m*m)" "theta{n in N}(1; (-2))" "$deep" "gf(pod) 2"; do
  status=0
  PYTHONPATH=src python3 -m podium.cli expand "$text" --order 10 > /dev/null 2>> "$tmp/errors.txt" || status=$?
  echo "exit $status" >> "$tmp/errors.txt"
done
echo "5fbf76d00d45aab95c017c63a3e073a750d9dab1ebf1f35efda3c1b5951bdf69  $tmp/errors.txt" | sha256sum --check

echo "== check every enumeration oracle at its default cap, and the weighted rows at higher caps"
PYTHONPATH=src python3 -m podium.cli oracle > "$tmp/oracle.txt"
echo "80cc7a810a5479b6b83ee62f62ebc43dc985a4d7479a13e80b8e0239be0b433c  $tmp/oracle.txt" | sha256sum --check
# every weighted row to its hard ceiling; peo takes about 1.35 s, eo 0.3 s and
# the others 0.1-0.15 s each (whole process, 2-core host, CPython 3.11.7)
for pin in opbar=30 opodd=30 eo=60 eobar=60 peo=60 qeo=60 afun=30; do
  PYTHONPATH=src python3 -m podium.cli oracle --function "${pin%=*}" --cap "${pin#*=}"
done

echo "all output pins hold"
