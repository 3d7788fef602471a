#!/usr/bin/env bash
# Mutation check: every mutation below must make a test fail. By default
# that test is the committed FuzzSimulatorVsReference corpus of
# internal/model, run as a plain test; a mutation may name another
# package and test pattern. Each mutation is applied to one file of a
# temporary copy of the tree (never to the working tree), the package's
# test binary is rebuilt from that copy (it must still compile) and run,
# and the file is put back before the next one. A pattern that no longer
# matches exactly once fails the check, so the list cannot go stale
# unnoticed.
# Usage: scripts/mutants.sh [workdir]
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
DIR=${1:-/tmp/mutants}
TREE=$DIR/tree
rm -rf "$DIR" && mkdir -p "$TREE"
tar -C "$ROOT" --exclude=./.git --exclude=./bench/out -cf - . | tar -C "$TREE" -xf -

# Each mutation: a name, a file of the tree, the package and the test
# pattern that must catch it (empty: the model corpus), and a perl
# substitution (delimited by ~) applied to the whole file.
MUTATIONS=(
	"settle dropped from Step|internal/model/sim.go|||s~selected := s.advance\(\)\n\ts.settle\(\)\n~selected := s.advance()\n~"
	"tracker.Invalidate skipped in moved|internal/model/sim.go|||s~\n\ts.tracker.Invalidate\(p\)\n\tif commChanged \{~\n\tif commChanged {~"
	"NeighborComm reads port+1|internal/model/ctx.go|||s~q := int\(c.nbr\[port-1\]\)(\n\tif c.agg != nil \{\n\t\tc.agg.note\(port, v,)~q := int(c.nbr[port])\$1~"
	"second writer skipped in executeStep's commit walk|internal/model/arena.go|||s~\t\tcommChanged\[i\] = a.commit\(cfg, selected\[i\], k, s.step, obs\)\n~\t\tif k != 1 {\n\t\t\tcommChanged[i] = a.commit(cfg, selected[i], k, s.step, obs)\n\t\t}\n~"
	"NeighborComm port row rotated in range|internal/model/ctx.go|||s~q := int\(c.nbr\[port-1\]\)(\n\tif c.agg != nil \{\n\t\tc.agg.note\(port, v,)~q := int(c.nbr[port%len(c.nbr)])\$1~"
	"removeHalf skips the moved neighbor's back pointer|internal/graph/dynamic.go|||s~\t\tg.backRow\(int\(row\[i\]\)\)\[g.backIndex\(p, i\)\] = narrowBack\(i\)\n~~"
	"countApply with an observer lands p one transition past its count|internal/model/sim.go|||s~if i\+1 == r && k > n \{~if i == r && k > n {~"
	"countApply without an observer leaves p one transition short|internal/model/sim.go|internal/model|^TestTrackedSchedulersMatchOracle\$|s~\t\tfor range r \{\n~\t\tfor range r - 1 {\n~"
	"SilentNow's disabled shortcut trusts a stale verdict|internal/model/sim.go|||s~t.valid\[p\] != verdictStale && t.action\[p\] < 0~t.action[p] < 0~"
	"counted neighbors settle after the commit, not before it|internal/model/arena.go|||s~\ts.countSettleWriters\(selected, writers\)\n(.*?)\treturn fired, commChanged\n~\$1\ts.countSettleWriters(selected, writers)\n\treturn fired, commChanged\n~s"
	"neighborsDirty leaves a neighbor's count running|internal/model/sim.go|||s~\t\ts.countForget\(int\(q\)\)\n~~"
	"an invalidated stepped verdict leaves its process off the live set|internal/model/sim.go|||s~(valid\[p\] == verdictStepped \{\n)\t\ts.live\[p>>6\] \|= 1 << \(p & 63\)\n~\$1~"
	"countPending ignores a stepped neighbor|internal/model/arena.go|||s~return s.counts\[q\] > 0~return s.counts[q] > 0 && s.countClosed(q)~"
	"the settle skips a synchronous disabled window|internal/model/sim.go|||s~(verdictStepped \{\n\t\tif s.obs == nil)~\$1 || s.allSel~"
	"a writer-forced settle's epoch count leaves out the current step|internal/model/arena.go|||s~\t\t\t\ts.countApply\(int\(q\), len\(writers\)\)\n~\t\t\t\ts.selStamp--\n\t\t\t\ts.countApply(int(q), len(writers))\n\t\t\t\ts.selStamp++\n~"
	"Arc returns the live slot on a dynamic graph|internal/graph/graph.go|internal/trace|^TestArcReadSetsUnderChurn\$|s~\t\treturn int\(g.dyn.arc\[i\]\)\n~\t\treturn i\n~"
	"Recorder counts an arc already in R_p again|internal/trace/trace.go|internal/trace|^TestArcReadSetsUnderChurn\$|s~\t\tif r.read\[w\]&b == 0 \{~\t\t{~"
	"MIS's predicate accepts a dominated process with no Dominator neighbor|internal/protocols/mis/mis.go|internal/verify|^TestLegitimateMatchesOracle\$|s~\n\treturn dominator\n\}~\n\treturn true\n}~"
	"MATCHING's predicate accepts a stale M flag|internal/protocols/matching/matching.go|internal/verify|^TestLegitimateMatchesOracle\$|s~\tif married != \(cfg.Comm\(p, VarM\) == 1\) \{\n\t\treturn false\n\t\}\n~~"
	"MIS's First skips C.(cur) for a dominated p whose cur neighbor is a Dominator|internal/protocols/mis/mis.go|internal/verify|^TestFirstMatchesGuards\$|s~\t\} else \{\n\t\tcq, cp := ~\t} else if own == Dominator {\n\t\tcq, cp := ~"
	"MATCHING's First answers seek where the guards answer propose|internal/protocols/matching/matching.go|internal/verify|^TestFirstMatchesGuards\$|s~return 4 // propose~return 5 // propose~"
	"BFS's First takes the last minimal port|internal/protocols/bfstree/bfstree.go|internal/verify|^TestFirstMatchesGuards\$|s~if d < best \{~if d <= best {~"
	"firstEnabled no longer clears the hand-off|internal/model/step.go|internal/model|^TestHandoffIsPerEvaluation\$|s~\tc.kept = false\n~~"
	"the silence sweep stops one process short|internal/model/sim.go|internal/model|^TestSilentNowSweep\$|s~len\(s.silUnknown\) > 0 \|\| s.silSweep > 0~len(s.silUnknown) > 0 || s.silSweep > 1~"
	"IsConnected skips each row's last port|internal/graph/properties.go|internal/graph|^TestConnectivity\$|s~for _, q := range g.Row\(int\(p\)\) \{\n(\t+if seen.Add)~for _, q := range g.nbr[g.off[p]:max(g.off[p], g.end[p]-1)] {\n\$1~"
	"the hot tier keeps an entry across Store|internal/service/hot.go|internal/service|^TestCorruptEntryLeavesTheTier\$|s~\tif el := h.entries\[hash\]; el != nil \{\n\t\th.remove\(el\)\n\t\}\n\th.mu.Unlock\(\)\n\treturn h.backend.Store~\th.mu.Unlock()\n\treturn h.backend.Store~"
	"the hot tier caches a miss|internal/service/hot.go|internal/service|^TestHotTierNeverCachesAMiss\$|s~if err != nil \|\| data == nil \{~if err != nil {~"
	"Execute instantiates every owned cell, not only the missing ones|internal/campaign/run.go|internal/campaign|^TestGraphsAreBuiltOnDemand\$|s~in, err := p.Instantiate\(opts.Observer, missing\)~owned := make([]int, 0, hi-lo)\n\t\tfor i := lo; i < hi; i++ {\n\t\t\towned = append(owned, i)\n\t\t}\n\t\tin, err := p.Instantiate(opts.Observer, owned)~"
	"an instance's trial closures drop the run's observer|internal/campaign/instance.go|internal/campaign|^TestEachRunObservesItsOwnTrials\$|s~engine.NewCell\(in.cfg, ~engine.NewCell(p.cfg, ~"
)

fail=0
for m in "${MUTATIONS[@]}"; do
	IFS='|' read -r name file pkg pattern subst <<<"$m"
	pkg=${pkg:-internal/model}
	pattern=${pattern:-^FuzzSimulatorVsReference\$}
	cp "$TREE/$file" "$DIR/original"
	if ! perl -0777 -i -pe "BEGIN { \$n = 0 } \$n += $subst; END { exit(\$n == 1 ? 0 : 3) }" "$TREE/$file"; then
		echo "STALE   $name: the pattern no longer matches $file exactly once"
		fail=1
	elif ! (cd "$TREE" && go test -c -o "$DIR/pkg.test" "./$pkg") >"$DIR/build.log" 2>&1; then
		echo "BROKEN  $name: the mutated tree does not compile"
		cat "$DIR/build.log"
		fail=1
	elif (cd "$TREE/$pkg" && "$DIR/pkg.test" -test.run "$pattern" -test.timeout 5m) >"$DIR/run.log" 2>&1; then
		echo "MISSED  $name: $pkg passes $pattern"
		fail=1
	else
		echo "caught  $name ($(grep -o -- '--- FAIL: [^ ]*' "$DIR/run.log" | tail -1 | cut -c11- || echo 'see run.log'))"
	fi
	cp "$DIR/original" "$TREE/$file"
done
if [ "$fail" -ne 0 ]; then
	echo "mutants FAIL"
	exit 1
fi
echo "mutants OK: the tests catch all ${#MUTATIONS[@]} mutations"
