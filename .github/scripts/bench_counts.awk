# bench_counts.awk extracts the deterministic count columns from stmbench
# E2/E5 tables, one "table row column value" line per cell, so two outputs
# can be diffed: static, opensR, opensU and undos for E2; readlog, undos and
# hits for E5. Pass -v cols=filterhit to extract other columns instead.
#
#   awk -f .github/scripts/bench_counts.awk experiments_reference.txt
BEGIN {
	if (cols == "") cols = "static opensR opensU undos readlog hits"
	n = split(cols, want, " ")
	for (i = 1; i <= n; i++) keep[want[i]] = 1
}
/^== / {
	table = ""
	if ($2 ~ /^E2\//) table = $2
	else if ($2 == "E5:") table = "E5"
	sub(/:$/, "", table)
	header = 0
	next
}
table == "" { next }
/^---/ { next }
NF == 0 { table = ""; next }
!header && $1 ~ /^(level|filter)$/ {
	for (i = 1; i <= NF; i++) name[i] = $i
	header = NF
	next
}
header {
	for (i = 2; i <= header; i++)
		if (name[i] in keep) print table, $1, name[i], $i
}
