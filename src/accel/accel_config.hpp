/**
 * @file
 * Per-lifeguard policy for accelerators, event capture and ConflictAlert
 * subscription, declared by each lifeguard at initialization time
 * (sections 4.4 and 5.4: "lifeguards specify which types of high-level
 * events they care about and ... whether a CA-Begin or CA-End record ...
 * should invalidate or flush IT, IF, and/or M-TLB").
 *
 * Only the choices some lifeguard actually makes are fields; the rest
 * is fixed behaviour that every lifeguard shares:
 * - The M-TLB serves every lifeguard (SimConfig::accel.metadataTlb
 *   alone switches it off) and is never flushed: no lifeguard frees
 *   metadata pages, so no mapping goes stale.
 * - malloc and free always broadcast ConflictAlerts; every lifeguard
 *   keeps allocation-sensitive state. Only syscalls are optional.
 * - A high-level event, local or arriving as a CA record, flushes IT
 *   (its deferred propagation may cross the event). malloc and free
 *   also invalidate IF, since an absorbed check's outcome is only as
 *   stable as the allocation state; syscalls leave IF live.
 * - The IF filters loads and stores alike, and local stores do not
 *   invalidate it: it absorbs only idempotent checks, which a store by
 *   the same thread cannot change.
 * - The IF never delays advertising: an absorbed check leaves no
 *   metadata effect pending, so its entries pin no record ID.
 * Shadow geometry (bits per application byte) is the Lifeguard
 * constructor argument, not part of the policy.
 */

#ifndef PARALOG_ACCEL_ACCEL_CONFIG_HPP
#define PARALOG_ACCEL_ACCEL_CONFIG_HPP

namespace paralog {

struct LifeguardPolicy
{
    // Which accelerators this lifeguard benefits from.
    bool usesIt = false;
    bool usesIf = false;

    // Capture-side event interests (the event mux of Figure 1).
    bool wantsRegOps = true;  ///< mov/alu events
    bool wantsJumps = true;
    bool heapOnly = false;    ///< memory events restricted to the heap

    // ConflictAlert subscription: whether syscalls broadcast.
    bool caOnSyscall = true;

    // Whether a store may leave the stored register's own IT row live
    // (the self-RMW exemption). Sound only when the lifeguard's
    // metadata combining is idempotent (union/intersection lattices:
    // TaintCheck) — for state-transition metadata like MemCheck's
    // init bit, a deferred check crossing its own initializing store
    // changes outcome with flush timing, so such lifeguards must
    // clear this and take the flush.
    bool itExemptSelfRmw = true;

    // Whether overwriting a live IT row (a new load/mov retargeting the
    // same register) must flush the old row first. Propagation-only
    // lifeguards (TaintCheck) can drop the stale row: its pending
    // deliveries only duplicate metadata the overwrite supersedes. A
    // checking lifeguard (MemCheck) cannot — the dropped row carries a
    // deferred uninit-read check, and whether an unrelated stall flush
    // happens to rescue it before the overwrite is delivery-schedule
    // timing, making the set of reported violations nondeterministic
    // (and silently losing checks even sequentially).
    bool itFlushOnOverwrite = false;
};

} // namespace paralog

#endif // PARALOG_ACCEL_ACCEL_CONFIG_HPP
