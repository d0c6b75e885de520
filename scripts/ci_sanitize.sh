#!/bin/sh
# Sanitizer leg for CI: build with -DPFM_SANITIZE=ON (ASan + UBSan) and
# run the daemon/concurrency and checkpoint-store tests under it. The
# daemon is the one part of the codebase with real thread/descriptor
# lifetime hazards — leaked descriptors or blob buffers on checkpoint
# error paths, double-fclose, worker threads outliving stop() — and the
# store's LZ codec and blob loader are raw byte-twiddling over
# attacker-shaped (corrupt) input: exactly what the instrumented build
# catches and the plain build cannot. The PMP suite rides along: its
# rotate/merge bit arithmetic and the reference-model lockstep are cheap
# and exactly the code UBSan pays off on (shift widths, popcount-driven
# indexing). The trace-frontend suite joins for the same reason: block
# (de)compression, CRC framing, and record decoding over deliberately
# corrupted trace files are untrusted-input byte-twiddling; its label
# also carries the trace identity suites (Configs/TraceReplayIdentity.*,
# TraceCheckpoint.*), which digest the whole machine. From pfm_tests,
# the checkpoint manifest reader (truncated, re-versioned, bit-flipped
# and CRC-re-signed manifests, corrupt section blobs, payloads rewritten
# through the reader and writer), the golden fixture, the machine-digest
# oracle and the memory hierarchy's plane and slot-array loaders run
# through a --gtest_filter, as do the core scheduler suites: the wait
# lists and the ready-bit ring are slot and index arithmetic the
# sanitizers check. So do the simulated-memory suites (SimMemory*: the
# page table, copy-on-write and the address-space cap) and the
# restore-sharing suite (SharedRestore.*): a restored image's pages
# point into a checkpoint blob that only the memory's pin keeps alive,
# so a page that outlives its blob is a use-after-free only ASan shows.
# The workload-descriptor suites (WorkloadDescriptor*) join because a
# restore now decodes the program it runs from the checkpoint: opcode,
# register, branch-target and label indices read from untrusted bytes.
# The commit-log suites (CommitLog*) join for the store FIFO's index
# arithmetic: byte offsets into each store's pre-store bytes, a coverage
# bitmask per read, and a loader that regroups untrusted per-byte
# records into stores. The hook-gating suite (HookGating.*) joins for
# the per-PC snoop flag table the core indexes by PC offset on every
# retirement and fetched branch.
# The rest of that binary is long simulation runs the plain build
# covers.
#
# Usage: scripts/ci_sanitize.sh [build-dir]   (default: build-sanitize)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-sanitize}"

cmake -B "$BUILD_DIR" -S . -DPFM_SANITIZE=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target pfm_daemon_tests \
    pfm_ckpt_store_tests pfm_pmp_tests pfm_trace_tests pfm_tests \
    pfm_daemon pfm_client
(cd "$BUILD_DIR" && ctest -L 'daemon|ckptstore|pmp|trace' --output-on-failure -j2)
SUITES='Checkpoint*:MachineDigest.*:MemoryCheckpoint*:Cache.*:Dram.*'
SUITES="$SUITES:HierarchyTest.*"
SUITES="$SUITES:Geometries/CacheProperty.*:LayoutEquiv.*"
SUITES="$SUITES:Core.*:CoreSlab.*:FastForward.*:CoreParamProperty.*"
SUITES="$SUITES:SimMemory*:SharedRestore.*:WorkloadDescriptor*"
SUITES="$SUITES:CommitLog*:HookGating.*"
"$BUILD_DIR/tests/pfm_tests" --gtest_filter="$SUITES"
