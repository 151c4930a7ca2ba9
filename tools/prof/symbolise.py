#!/usr/bin/env python3
"""Turn a raw file from sigprof.so / mallocsites.so into a table.

  symbolise.py BINARY cpu.raw   [--root World::run_loop] [--top 40]
  symbolise.py BINARY alloc.raw --alloc [--depth 3]      [--top 25]

CPU mode counts a sample for a function if the function is anywhere on
its stack, inlined frames included (inclusive), and prints each
function's share of all samples and of the samples that have --root on
their stack (exiting non-zero when no sample does: a root that is
inlined away prints under another name); a sample whose leaf PC is
outside the binary is also counted under its mapping's name
(`[libc.so.6]`), which is how "time inside libc" is read off.  Allocation mode attributes each sampled call
to the innermost frame that is not allocator or container plumbing, and
prints sites by share of calls, with the sampled bytes.

Needs `addr2line` (binutils) and a binary with line tables
(`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`).
"""
import argparse
import collections
import os
import re
import subprocess

# Frames between a call site and malloc that say nothing about who
# allocates: the allocator shims and the growth paths of std containers.
PLUMBING = re.compile(
    r"^(std |__rust_|__rdl_|__rustc|alloc::alloc::|alloc::raw_vec::|<alloc::alloc::|<alloc::raw_vec::"
    r"|core::alloc::|<T as alloc::|alloc::vec::Vec<T,A>::(with_capacity|reserve|push|extend|resize|append_elements|extend_with|extend_trusted|extend_desugared|insert|from_elem|extend_from_slice)"
    r"|alloc::vec::Vec<T>::(with_capacity|new)|<alloc::vec::Vec<T,A> as |<alloc::vec::Vec<T> as "
    r"|alloc::vec::(from_elem|spec_|in_place)|<T as alloc::vec::|<u8 as alloc::vec::|alloc::slice::|<T as alloc::slice::"
    r"|alloc::sync::Arc<T>::new|alloc::boxed::|alloc::collections::vec_deque::|alloc::string::|core::ops::function::"
    r"|hydra_sim::alloc_count|<hydra_sim::alloc_count|malloc|calloc|realloc)"
)


def qualified(function):
    """True for a full symbol path (`a::b::f`, `<T as U>::f`), false for the
    bare name an inlined frame gets (`f`, `f<a::T>`)."""
    return function.startswith("<") or "::" in function.split("<", 1)[0]


def read_raw(path):
    maps, samples, meta = [], [], None
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
        elif kind == "S":
            samples.append((0, [int(x, 16) for x in rest.split()]))
        elif kind == "A":
            f = rest.split()
            samples.append((int(f[0]), [int(x, 16) for x in f[1:]]))
        elif kind == "C":
            meta = tuple(int(x) for x in rest.split())
    return maps, samples, meta


def symbolise(binary, maps, samples, return_addresses_from):
    """pc -> list of function names, innermost (inlined) first."""
    exe = os.path.realpath(binary)
    exe_maps = [m for m in maps if m[3] and os.path.realpath(m[3]) == exe]
    if not exe_maps:
        raise SystemExit(f"{binary} is not mapped in this raw file")
    base = min(lo - off for lo, _, off, _ in exe_maps)

    def locate(pc):
        for lo, hi, _, name in maps:
            if lo <= pc < hi:
                return name
        return ""

    names, wanted = {}, {}
    for _, pcs in samples:
        for depth, pc in enumerate(pcs):
            where = locate(pc)
            if where and os.path.realpath(where) == exe:
                # A return address points after the call: step back into it.
                wanted[pc] = pc - base - (1 if depth >= return_addresses_from else 0)
            else:
                names[pc] = ["[" + (os.path.basename(where) or "unmapped") + "]"]
    addrs = sorted(set(wanted.values()))
    out = subprocess.run(
        ["addr2line", "-f", "-i", "-C", "-a", "-e", exe] + [hex(a) for a in addrs],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # `-a -f -i` prints the address, then one (function, file:line) pair
    # of lines per inlining level, innermost first.
    # Functions inlined from another module come without their path: tag
    # those with their source file, and mark frames from the standard
    # library's sources (`/rustc/<hash>/library/...`) as such.
    by_addr, current, function = {}, None, None
    for line in out:
        if line.startswith("0x"):
            current, function = by_addr.setdefault(int(line, 16), []), None
        elif function is None:
            function = re.sub(r"::h[0-9a-f]{16}$", "", line)
        else:
            current.append((function, line.rsplit(":", 1)[0]))
            function = None
    for addr, chain in by_addr.items():
        # Where the innermost frame was inlined from a crate without full
        # debug info (std), addr2line names it after the enclosing symbol
        # instead — the same function the chain's last pair names. Drop it.
        if len(chain) > 1 and qualified(chain[0][0]):
            chain = chain[1:]
        by_addr[addr] = [
            "std " + f if source.startswith("/rustc/")
            else f if qualified(f) or source == "??"
            else f + " [" + os.path.basename(source) + "]"
            for f, source in chain
        ]
    for pc, addr in wanted.items():
        names[pc] = by_addr.get(addr) or ["??"]
    return names


def cpu_table(names, samples, root, top):
    total = len(samples)
    inclusive, leaf = collections.Counter(), collections.Counter()
    rooted = 0
    for _, pcs in samples:
        # Frames outside the binary count only as the leaf: libc's
        # `__libc_start_main` sits under every stack.
        on_stack = {f for pc in pcs for f in names[pc] if not f.startswith("[")}
        if pcs and names[pcs[0]][0].startswith("["):
            on_stack.add(names[pcs[0]][0])
        has_root = any(root in f for f in on_stack)
        rooted += has_root
        for f in on_stack:
            inclusive[f] += 1
            inclusive[(f, "rooted")] += has_root
        if pcs:
            leaf[names[pcs[0]][0]] += 1
    if not rooted:
        raise SystemExit(f"no sample of {total} has `{root}` on its stack: pick a --root the stacks hold")
    print(f"{total} samples, {rooted} with `{root}` on the stack\n")
    print(f"{'all %':>7} {'of root %':>9}  function (inclusive)")
    rows = [(f, n) for f, n in inclusive.items() if isinstance(f, str)]
    for f, n in sorted(rows, key=lambda r: -r[1])[:top]:
        share = 100 * inclusive[(f, "rooted")] / max(rooted, 1)
        print(f"{100 * n / total:7.2f} {share:9.2f}  {f}")
    print(f"\n{'all %':>7}  leaf (self)")
    for f, n in leaf.most_common(top // 2):
        print(f"{100 * n / total:7.2f}  {f}")


def alloc_table(names, samples, meta, top, depth):
    sites, bytes_at = collections.Counter(), collections.Counter()
    for size, pcs in samples:
        chain = [f for pc in pcs for f in names[pc]]
        own = [f for f in chain if not PLUMBING.match(f)]
        site = " <- ".join(own[:depth]) if own else "(plumbing only)"
        sites[site] += 1
        bytes_at[site] += size
    total = len(samples)
    if meta:
        print(f"{meta[0]} allocator calls, 1 in {meta[1]} sampled: {total} samples\n")
    print(f"{'calls %':>8} {'mean B':>7}  site" + " <- caller" * (depth - 1))
    for site, n in sites.most_common(top):
        print(f"{100 * n / total:8.2f} {bytes_at[site] / n:7.0f}  {site}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("raw")
    ap.add_argument("--alloc", action="store_true", help="the raw file came from mallocsites.so")
    ap.add_argument("--root", default="World::run_loop", help="CPU mode: the function shares are taken against")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--depth", type=int, default=1, help="allocation mode: frames per site (1 = the site alone)")
    args = ap.parse_args()
    maps, samples, meta = read_raw(args.raw)
    if not samples:
        raise SystemExit("no samples in " + args.raw)
    # sigprof's first PC is the interrupted instruction; every PC the
    # malloc shim records is a return address.
    names = symbolise(args.binary, maps, samples, 0 if args.alloc else 1)
    if args.alloc:
        alloc_table(names, samples, meta, args.top, args.depth)
    else:
        cpu_table(names, samples, args.root, args.top)


if __name__ == "__main__":
    main()
