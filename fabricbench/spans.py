#!/usr/bin/env python3
"""Summarise (or dump as CSV) the span log a traced run writes.

Usage:
    python3 fabricbench/spans.py .bench_build/fabricbench/spans-east-west.bin [--csv out.csv]

A traced run (--trace 1) records one span per measured slice, one per
public call the generators make (child of the slice it ran in), and one per
replay probe, and writes them to spans-<workload>.bin in its build tree.
The summary gives, per span kind, the count, total host time, median
duration and allocations per span, and the slices' self time (slice time
not covered by its child call spans).
"""
import argparse
import statistics
import struct
import sys

BATCH = struct.Struct("<H6xqqQQ")  # kind, start_ns, end_ns, allocs, items
CALL = struct.Struct("<qIIIH2x")   # start_ns, dur_ns, slice, allocs, kind


def read(path: str):
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"FBSPANS1":
        sys.exit(f"{path}: not a span log")
    pos = 8
    (nkinds,) = struct.unpack_from("<I", data, pos)
    pos += 4
    kinds = []
    for _ in range(nkinds):
        (n,) = struct.unpack_from("<I", data, pos)
        kinds.append(data[pos + 4:pos + 4 + n].decode())
        pos += 4 + n
    (nb,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    batches = [BATCH.unpack_from(data, pos + i * BATCH.size) for i in range(nb)]
    pos += nb * BATCH.size
    (nc,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    calls = CALL.iter_unpack(data[pos:pos + nc * CALL.size])
    return kinds, batches, calls


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("log")
    parser.add_argument("--csv", help="write every span to this CSV file")
    args = parser.parse_args()
    kinds, batches, calls = read(args.log)

    out = open(args.csv, "w") if args.csv else None
    if out:
        out.write("id,parent,kind,start_ns,end_ns,allocs,items\n")
        for i, (k, start, end, allocs, items) in enumerate(batches, 1):
            out.write(f"b{i},,{kinds[k]},{start},{end},{allocs},{items}\n")

    durations, allocs_by_kind = {}, {}
    covered = [0] * (len(batches) + 1)
    for i, (start, dur, slice_, allocs, k) in enumerate(calls, 1):
        durations.setdefault(k, []).append(dur)
        allocs_by_kind[k] = allocs_by_kind.get(k, 0) + allocs
        covered[slice_] += dur
        if out:
            parent = f"b{slice_}" if slice_ else ""
            out.write(f"c{i},{parent},{kinds[k]},{start},{start + dur},{allocs},1\n")
    if out:
        out.close()

    print(f"{'kind':28} {'spans':>10} {'total s':>10} {'median ns':>12} {'allocs/span':>12}")
    for k, durs in sorted(durations.items()):
        print(f"{kinds[k]:28} {len(durs):10d} {sum(durs) / 1e9:10.4f} "
              f"{statistics.median(durs):12.0f} {allocs_by_kind[k] / len(durs):12.3f}")
    for i, (k, start, end, allocs, items) in enumerate(batches, 1):
        if kinds[k] != "slice":
            print(f"{kinds[k]:28} {1:10d} {(end - start) / 1e9:10.4f} "
                  f"{(end - start) / max(items, 1):12.1f} {allocs / max(items, 1):12.3f}")
    slice_ns = sum(end - start for k, start, end, _, _ in batches if kinds[k] == "slice")
    in_slices = sum(covered[1:])  # covered[0]: calls made during set-up
    if slice_ns:
        print(f"slices: {slice_ns / 1e9:.4f} s, self time {(slice_ns - in_slices) / 1e9:.4f} s "
              f"({100 * (1 - in_slices / slice_ns):.1f}% outside the benchmark's calls)")


if __name__ == "__main__":
    main()
