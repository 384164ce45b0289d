#!/usr/bin/env bash
# bench.sh — run the combination-pipeline benchmarks and emit
# BENCH_combine.json with ns/op and allocs/op for the local combine
# (serial reference vs sharded, at 1/4/8 threads), the global combine
# (sharded decode-once streamed tree on a 4-rank in-process world) and the
# per-codec global combine (none/flate/block over a real TCP world,
# recording raw and on-wire bytes per op alongside ns/op). Then run the
# observability benchmarks (scheduler overhead with tracing
# off/on/flight-recorded, plus the raw span-record costs) and emit
# BENCH_obs.json — the "disabled path stays zero-overhead" record for the
# tracing subsystem. Lastly run the streaming-layer benchmarks (one fired
# tumbling window per op: warm reseed vs per-window scheduler rebuild vs
# the bare operator layer) and emit BENCH_stream.json with ns/op,
# allocs/op, windows/sec, and the mean per-window firing latency — the
# amortization record for the in-place reset (ResetCombinationMap +
# RunContext) of a warm scheduler.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s scripts/bench.sh   # longer, more stable timings
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_combine.json}"
benchtime="${BENCHTIME:-0.5s}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test ./internal/core/ -run '^$' -bench 'BenchmarkLocalCombine|BenchmarkGlobalCombine|BenchmarkCombineCodec' \
  -benchtime "$benchtime" | tee "$raw"

awk -v cores="$(nproc 2>/dev/null || echo 1)" -v benchtime="$benchtime" '
/^Benchmark(Local|Global)Combine|^BenchmarkCombineCodec/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip the -GOMAXPROCS suffix
    ns = ""; allocs = ""; rawb = ""; wireb = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")        ns = $(i - 1)
        if ($i == "allocs/op")    allocs = $(i - 1)
        if ($i == "rawbytes/op")  rawb = $(i - 1)
        if ($i == "wirebytes/op") wireb = $(i - 1)
    }
    if (ns != "" && allocs != "") {
        if (rawb != "" && wireb != "") {
            # Codec benchmarks also record bytes handed to the sockets before
            # and after encoding, so the file pins the compression ratio.
            entries[++n] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"raw_bytes_per_op\": %s, \"wire_bytes_per_op\": %s}",
                                   name, ns, allocs, rawb, wireb)
        } else {
            entries[++n] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs)
        }
    }
}
END {
    printf "{\n"
    printf "  \"cores\": %s,\n", cores
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"results\": {\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", entries[i], (i < n ? "," : "")
    printf "  }\n"
    printf "}\n"
}' "$raw" > "$out"

echo "wrote $out"

obs_out="BENCH_obs.json"
{
  go test ./internal/core/ -run '^$' -bench 'BenchmarkSchedObs' -benchtime "$benchtime"
  go test ./internal/obs/ -run '^$' -bench 'BenchmarkRecordSpan' -benchtime "$benchtime"
} | tee "$raw"

awk -v cores="$(nproc 2>/dev/null || echo 1)" -v benchtime="$benchtime" '
/^Benchmark(SchedObs|RecordSpan)/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip the -GOMAXPROCS suffix
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns != "") {
        entries[++n] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}", name, ns, allocs == "" ? 0 : allocs)
    }
}
END {
    printf "{\n"
    printf "  \"cores\": %s,\n", cores
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"results\": {\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", entries[i], (i < n ? "," : "")
    printf "  }\n"
    printf "}\n"
}' "$raw" > "$obs_out"

echo "wrote $obs_out"

stream_out="BENCH_stream.json"
go test ./internal/stream/ -run '^$' -bench 'BenchmarkStream' -benchmem \
  -benchtime "$benchtime" | tee "$raw"

awk -v cores="$(nproc 2>/dev/null || echo 1)" -v benchtime="$benchtime" '
/^BenchmarkStream/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip the -GOMAXPROCS suffix
    ns = ""; allocs = ""; wps = ""; lat = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")         ns = $(i - 1)
        if ($i == "allocs/op")     allocs = $(i - 1)
        if ($i == "windows/sec")   wps = $(i - 1)
        if ($i == "latencyns/win") lat = $(i - 1)
    }
    if (ns != "" && allocs != "") {
        entries[++n] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"windows_per_sec\": %s, \"latency_ns_per_window\": %s}",
                               name, ns, allocs, wps == "" ? 0 : wps, lat == "" ? 0 : lat)
    }
}
END {
    printf "{\n"
    printf "  \"cores\": %s,\n", cores
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"results\": {\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", entries[i], (i < n ? "," : "")
    printf "  }\n"
    printf "}\n"
}' "$raw" > "$stream_out"

echo "wrote $stream_out"
