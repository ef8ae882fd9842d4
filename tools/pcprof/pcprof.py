#!/usr/bin/env python3
"""Flat profile from a pcprof.out file written by pcprof.so.

    python3 tools/pcprof/pcprof.py [pcprof.out]

Each sampled PC is mapped to its file through the /proc/self/maps copy
in the file, turned into an ELF virtual address through the file's
PT_LOAD headers, and charged to the nearest preceding symbol that
`nm` lists (`nm -D` for stripped libraries). Prints the 40 symbols
with the most samples.
"""
import bisect
import collections
import struct
import subprocess
import sys

TOP = 40


def read(path):
    maps, pcs, in_pcs = [], [], False
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line == "--":
                in_pcs = True
            elif in_pcs:
                pcs.append(int(line, 16))
            else:
                parts = line.split(None, 5)
                if len(parts) == 6 and "x" in parts[1]:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
    maps.sort()
    return maps, pcs


def loads(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD of a 64-bit ELF."""
    with open(path, "rb") as f:
        hdr = f.read(64)
        phoff, = struct.unpack_from("<Q", hdr, 32)
        phentsize, phnum = struct.unpack_from("<HH", hdr, 54)
        f.seek(phoff)
        ph = f.read(phentsize * phnum)
    out = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from("<IIQQQQ", ph, i * phentsize)
        if p_type == 1:
            out.append((p_offset, p_vaddr, p_filesz))
    return out


def symbols(path):
    for flags in (["-n"], ["-D", "-n"]):
        res = subprocess.run(["nm", "--defined-only"] + flags + [path],
                             capture_output=True, text=True)
        syms = []
        for line in res.stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "TtWwi":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return sorted(syms)
    return []


def main():
    maps, pcs = read(sys.argv[1] if len(sys.argv) > 1 else "pcprof.out")
    starts = [m[0] for m in maps]
    by_file = collections.defaultdict(list)
    unmapped = 0
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1] or not maps[i][3].startswith("/"):
            unmapped += 1
            continue
        lo, _, off, path = maps[i]
        by_file[path].append(pc - lo + off)
    counts = collections.Counter()
    for path, offs in by_file.items():
        segs, syms = loads(path), symbols(path)
        addrs = [s[0] for s in syms]
        short = path.rsplit("/", 1)[-1]
        for o in offs:
            va = next((v + o - po for po, v, sz in segs if po <= o < po + sz), o)
            j = bisect.bisect_right(addrs, va) - 1
            counts[(syms[j][1] if j >= 0 else "?", short)] += 1
    total = len(pcs)
    print("pcprof: %d samples, %d outside any file mapping" % (total, unmapped))
    print("%7s %8s  %s" % ("self%", "samples", "symbol [file]"))
    for (sym, short), c in counts.most_common(TOP):
        print("%6.2f%% %8d  %s [%s]" % (100.0 * c / max(total, 1), c, sym, short))


if __name__ == "__main__":
    main()
