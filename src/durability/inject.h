// Durability injection points for the crash and I/O-fault test
// harnesses (docs/DURABILITY.md "crash matrix", docs/ROBUSTNESS.md).
// The WAL writer and the checkpoint protocol call inject(name) at every
// durability-relevant boundary; the point's name decides what an armed
// hit does, because the two name sets are disjoint:
//
//   kill points  the process dies with _exit(kCrashExitStatus): no
//                destructors, no flushing — the closest userspace
//                approximation of a crash. Data already write()n to a
//                file descriptor survives _exit (the page cache belongs
//                to the kernel), so the points are placed to leave
//                exactly the on-disk artifact a real crash at that
//                boundary would.
//     wal-mid-append          half a WAL frame written, then die
//     wal-pre-fsync           full frame written, die before fdatasync
//     wal-post-fsync          die right after the group fsync
//     checkpoint-mid-write    die with a truncated checkpoint tmp file
//     checkpoint-pre-rename   tmp + fresh WAL durable, die before rename
//     checkpoint-post-rename  die after the rename commits, before the
//                             old generation is cleaned up
//
//   fault points inject() returns an errno and the caller throws
//                io::IoError, so the serving path must survive: retry
//                transient errors, truncate torn frames, degrade to
//                memory-only under persistent failure.
//     wal-append         frame write fails before any byte reaches disk
//     wal-append-short   half the frame reaches the file, then the write
//                        fails (exercises truncate-to-last-good-frame)
//     wal-fsync          the per-flush group fsync fails
//     wal-create         creating the next WAL segment fails
//     checkpoint-write   writing the checkpoint tmp file fails
//     checkpoint-rename  the atomic rename commit fails
//
// Environment (read on every call: the points fire at flush cadence,
// not per edge, and tests arm them after the process has run flushes):
//   PARCORE_DURABILITY_INJECT_AT     point name to arm (unset = off)
//   PARCORE_DURABILITY_INJECT_AFTER  Nth hit that starts the window
//                                    (default 1)
//   PARCORE_DURABILITY_INJECT_COUNT  hits in the window; 0 = every hit
//                                    from AFTER on (persistent; default).
//                                    1 models a transient blip the retry
//                                    loop should absorb. A kill point
//                                    dies at its first window hit.
//   PARCORE_DURABILITY_INJECT_ERRNO  errno a fault point returns:
//                                    "enospc" (default), "eio", or a
//                                    numeric value
#pragma once

namespace parcore::durability {

/// Exit status used by injected crashes, distinguishable from ordinary
/// failures in the fork-based tests.
inline constexpr int kCrashExitStatus = 42;

/// Counts one hit of `name` when it is the armed point. A hit inside
/// the window kills the process at a kill point and returns the errno
/// to inject at a fault point; every other call returns 0.
int inject(const char* name);

/// True when the NEXT hit of `name` falls inside the window — the
/// writers use this to stage a half-written artifact before the hit.
bool armed(const char* name);

/// Test-only: reset the hit counter so in-process tests can arm
/// several scenarios in sequence (a forked crash child starts from its
/// parent's count, which stays 0 while nothing is armed).
void reset_injection_for_test();

}  // namespace parcore::durability
