#!/bin/sh
# Output determinism: runs each program under examples/, tracer -auto and
# tracer -auto -batch on a generated tsp program, and paperbench's tables built
# from its suite run, twice, and fails when the two outputs differ once wall
# times are masked. A verdict list printed in map order fails it, and so does
# a table count (Table 2's iterations, Table 4's groups) that changes between
# runs. The batch run's verdict lines, its [batch: ...] summaries dropped,
# must also equal the per-query run's, in order. Each table pasted into
# EXPERIMENTS.md from that paperbench run (the fenced blocks that open with
# "Figure 12.", "Table 2.", "Table 3.", "Table 4." or "Figure 14.") must
# appear in its output, times masked on both sides.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# mask replaces every Go duration (12ms, 1.5s, 1m2s, 800µs) and paperbench
# time (1.5m) with <wall>, then squeezes runs of spaces, since a column padded
# to its time's width varies with the time.
mask() { sed -E 's/([0-9]+h)?([0-9]+m)?[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m)/<wall>/g; s/ +/ /g'; }

# twice LABEL CMD... runs CMD two times and compares the masked outputs.
twice() {
	label=$1
	shift
	"$@" | mask >"$tmp/a"
	"$@" | mask >"$tmp/b"
	if ! cmp -s "$tmp/a" "$tmp/b"; then
		echo "determinism: $label printed two different outputs:"
		diff "$tmp/a" "$tmp/b" || true
		exit 1
	fi
	echo "determinism: $label: $(wc -l <"$tmp/a") lines, identical"
}

for ex in examples/*/; do
	name=$(basename "$ex")
	go build -o "$tmp/$name" "./$ex"
	twice "examples/$name" "$tmp/$name"
done
go build -o "$tmp/tracer" ./cmd/tracer
go run ./cmd/benchgen -dir "$tmp" -name tsp >/dev/null
twice "tracer -auto tsp.tir" "$tmp/tracer" -auto "$tmp/tsp.tir"
cp "$tmp/a" "$tmp/solve"
twice "tracer -auto -batch tsp.tir" "$tmp/tracer" -auto -batch -batch-workers 2 "$tmp/tsp.tir"
grep -v '^\[batch: ' "$tmp/a" >"$tmp/batch" || true
if ! cmp -s "$tmp/solve" "$tmp/batch"; then
	echo "determinism: tracer -auto -batch printed other verdicts than tracer -auto:"
	diff "$tmp/solve" "$tmp/batch" || true
	exit 1
fi
echo "determinism: tracer -auto -batch: $(wc -l <"$tmp/batch") verdict lines, the same as tracer -auto"
go build -o "$tmp/paperbench" ./cmd/paperbench
twice "paperbench -only fig12,table2,table3,table4,fig14" \
	"$tmp/paperbench" -only fig12,table2,table3,table4,fig14

# Pull each pasted block out of EXPERIMENTS.md, then look for its masked lines,
# trailing spaces dropped, as a contiguous run of the masked output.
awk -v dir="$tmp" '
/^```/ { if (inb) { inb = 0; if (f != "") close(f) } else { inb = 1; first = 1 }; next }
inb && first { first = 0; f = ""; if ($0 ~ /^(Figure 12|Table 2|Table 3|Table 4|Figure 14)\./) f = dir "/pasted" ++n }
inb && f != "" { print > f }
' EXPERIMENTS.md
blocks=0
for f in "$tmp"/pasted*; do
	[ -e "$f" ] || continue
	blocks=$((blocks + 1))
	mask <"$f" >"$f.masked"
	if ! awk '
		{ sub(/ +$/, "") }
		NR == FNR { want[++n] = $0; next }
		{ got[++m] = $0 }
		END {
			for (i = 1; i + n - 1 <= m; i++) {
				for (j = 1; j <= n && got[i + j - 1] == want[j]; j++) {}
				if (j > n) exit 0
			}
			exit 1
		}' "$f.masked" "$tmp/a"; then
		echo "determinism: EXPERIMENTS.md's \"$(head -n 1 "$f")\" block is not in paperbench's output; masked, it reads:"
		cat "$f.masked"
		exit 1
	fi
done
if [ "$blocks" != 5 ]; then
	echo "determinism: found $blocks of the 5 pasted paperbench blocks in EXPERIMENTS.md"
	exit 1
fi
echo "determinism: EXPERIMENTS.md: the $blocks pasted paperbench blocks match its output"
