/**
 * @file
 * Inheritance Tracking (IT) accelerator, parallel-monitoring version
 * (sections 2, 4.1, 4.2 and Figure 3).
 *
 * IT tracks, per application register, where the register's metadata was
 * inherited from: up to two memory addresses (covering binary ALU
 * operations), the constant state, or unknown. Loads, register moves,
 * constant writes and most ALU operations are absorbed; a store through
 * a tracked register is delivered as a single memory-to-memory transfer
 * event carrying the inherits-from addresses.
 *
 * Parallel-monitoring additions:
 *  - every tracked address carries the record ID of the inheriting
 *    access; the *delayed advertising* progress of the lifeguard is
 *    min(row RIDs) - 1, so remote threads cannot run past events whose
 *    metadata reads are still pending in the table (section 4.2);
 *  - the table is flushed on dependence stalls (deadlock avoidance), on
 *    ConflictAlert records (high-level remote conflicts), and when the
 *    advertising lag exceeds a threshold.
 *
 * Every row write goes through setRow(), which keeps two register bit
 * masks (rows in the kAddr state, rows not kInvalid) and each kAddr
 * row's oldest source rid current. The flushes walk only set mask bits,
 * lowest register first, which is the order a full row scan visits
 * them in, so flush order and event order are unchanged; minRid() is a
 * minimum over the live rows' cached minima and empty() a mask test.
 * Only kAddr rows hold sources, so no other row can pin a record.
 */

#ifndef PARALOG_ACCEL_IT_TABLE_HPP
#define PARALOG_ACCEL_IT_TABLE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "accel/lg_event.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "isa/inst.hpp"

namespace paralog {

class ItTable
{
  public:
    enum class RowState : std::uint8_t
    {
        kInvalid, ///< lifeguard-side register metadata is current
        kConst,   ///< register metadata is the "constant" state
        kAddr,    ///< register inherits from 1-2 memory ranges
    };

    struct Source
    {
        Addr addr = 0;
        std::uint8_t size = 0;
        RecordId rid = kInvalidRecord;
    };

    struct Row
    {
        RowState state = RowState::kInvalid;
        std::uint8_t nsrc = 0;
        std::array<Source, kItMaxSources> src{};

        bool
        overlaps(Addr addr, unsigned size) const
        {
            for (unsigned i = 0; i < nsrc; ++i) {
                if (src[i].addr < addr + size &&
                    addr < src[i].addr + src[i].size)
                    return true;
            }
            return false;
        }
    };

    /**
     * Process one instruction-level record; absorbed events append
     * nothing, transformations/flushes append delivered events to @p out.
     * Returns true if the original record itself was absorbed.
     */
    bool process(const EventRecord &rec, std::vector<LgEvent> &out);

    /** Minimum record ID held live in the table (delayed advertising). */
    RecordId minRid() const;

    /** Flush one row: deliver its state to the lifeguard, then clear. */
    void flushRow(RegId reg, std::vector<LgEvent> &out);

    /** Flush the whole table (dependence stall / ConflictAlert). */
    void flushAll(std::vector<LgEvent> &out);

    /** Flush only rows holding a record ID at or below @p min_rid
     *  (selective threshold flush: fresh rows keep absorbing). */
    void flushOlderThan(RecordId min_rid, std::vector<LgEvent> &out);

    /**
     * Flush rows whose inherits-from ranges overlap [addr, size).
     * @param exempt register whose row is exempt (self-RMW through the
     *        stored register is idempotent under union/intersection
     *        metadata combining; pass kNoReg for no exemption)
     */
    void flushOverlapping(Addr addr, unsigned size,
                          std::vector<LgEvent> &out,
                          RegId exempt = kNoReg);

    /** Policy knob: whether a store leaves the stored register's own
     *  row live (LifeguardPolicy::itExemptSelfRmw). */
    void setExemptSelfRmw(bool exempt) { exemptSelfRmw_ = exempt; }

    /** Policy knob: whether retargeting a register flushes its old row
     *  instead of dropping it (LifeguardPolicy::itFlushOnOverwrite). */
    void setFlushOnOverwrite(bool flush) { flushOnOverwrite_ = flush; }

    const Row &row(RegId reg) const { return rows_[reg]; }

    /** Any row currently holding inherits-from state? */
    bool empty() const { return liveMask_ == 0; }

    StatSet stats{"it"};

  private:
    static void appendInherit(RegId reg, const Row &row,
                              std::vector<LgEvent> &out);

    /** Flush-or-drop the row a new absorption is about to replace. */
    void retireRow(RegId reg, std::vector<LgEvent> &out);

    /** The one writer of rows_: stores @p row and updates the masks
     *  and the row's cached oldest source rid. */
    void setRow(RegId reg, const Row &row);

    static_assert(kNumRegs <= 32, "register masks are 32 bits wide");

    std::array<Row, kNumRegs> rows_{};
    std::uint32_t addrMask_ = 0; ///< rows in state kAddr
    std::uint32_t liveMask_ = 0; ///< rows not kInvalid
    std::array<RecordId, kNumRegs> rowMinRid_{}; ///< valid under addrMask_
    bool exemptSelfRmw_ = true;
    bool flushOnOverwrite_ = false;

    Counter &absorbedLoadsCtr_{stats.counter("absorbed_loads")};
    Counter &absorbedMovsCtr_{stats.counter("absorbed_movs")};
    Counter &absorbedAluCtr_{stats.counter("absorbed_alu")};
    Counter &absorbedJumpsCtr_{stats.counter("absorbed_jumps")};
    Counter &aluOverflowsCtr_{stats.counter("alu_overflows")};
    Counter &memToMemCtr_{stats.counter("mem_to_mem")};
    Counter &setConstCtr_{stats.counter("set_const")};
    Counter &rowFlushesCtr_{stats.counter("row_flushes")};
    Counter &fullFlushesCtr_{stats.counter("full_flushes")};
    Counter &thresholdFlushesCtr_{stats.counter("threshold_flushes")};
    Counter &localConflictsCtr_{stats.counter("local_conflicts")};
};

} // namespace paralog

#endif // PARALOG_ACCEL_IT_TABLE_HPP
