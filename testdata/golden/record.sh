#!/bin/sh
# Records the golden byte-identity files for the simulator's observable
# outputs: campaign, soak and tenant reports, profiler output and its
# HTML artifact, experiment tables and metric frames, each at fixed
# seeds. No output byte may change without an intentional re-record.
#
# `go test ./cmd/...` is the check: each cmd's tests replay these
# invocations in process, at several pool widths, and byte-compare the
# results with the files here.
#
# Usage (from the repo root):
#   ./testdata/golden/record.sh record    # overwrite the goldens
set -eu

if [ "${1:-record}" != record ]; then
	echo "usage: $0 [record] (the check is: go test ./cmd/...)" >&2
	exit 2
fi
dir="$(dirname "$0")"

go run ./cmd/limit-chaos -seeds 4 -iters 150 -metrics -parallel 1 >"$dir/campaign.txt"
go run ./cmd/limit-chaos -soak -seeds 2 -metrics -parallel 4 >"$dir/soak.txt"
go run ./cmd/limit-chaos -tenants 4 -seeds 2 -metrics -parallel 4 -report "$dir/tenant-campaign.txt"
go run ./cmd/limit-profile -workload mysql -scale 0.3 -budget 1.05 -parallel 4 -html "$dir/report-mysql.html" >"$dir/profile-mysql.txt"
go run ./cmd/limit-experiments -scale 0.1 -parallel 4 >"$dir/experiments.txt"
go run ./cmd/limitctl metrics -app apache -scale 0.3 -format frames >"$dir/frames-apache.jsonl"
echo "recorded 7 goldens into $dir"
