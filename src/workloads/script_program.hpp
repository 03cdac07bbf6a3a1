/**
 * @file
 * Convenience base for workload thread programs: each take() runs
 * refill() once, and its emit() calls append straight to the fetch
 * buffer. refill() is called only when every previously emitted
 * instruction has executed, so it may read register values produced by
 * them (pointer chasing).
 */

#ifndef PARALOG_WORKLOADS_SCRIPT_PROGRAM_HPP
#define PARALOG_WORKLOADS_SCRIPT_PROGRAM_HPP

#include <vector>

#include "app/program.hpp"
#include "app/thread_context.hpp"

namespace paralog {

class ScriptProgram : public ThreadProgram
{
  public:
    /** Hand a whole refill() batch to the caller's buffer in one
     *  virtual call: one refill attempt, and an empty result terminates
     *  the thread. */
    std::size_t
    take(std::vector<Inst> &out, ThreadContext &tc) override
    {
        if (done_)
            return 0;
        std::size_t before = out.size();
        sink_ = &out;
        if (!refill(tc))
            done_ = true;
        sink_ = nullptr;
        return out.size() - before;
    }

  protected:
    /** Emit more instructions; return false when the program is over. */
    virtual bool refill(ThreadContext &tc) = 0;

    /** Append to the take() buffer; only valid inside refill(). */
    void emit(const Inst &i) { sink_->push_back(i); }

  private:
    std::vector<Inst> *sink_ = nullptr; ///< refill target during take()
    bool done_ = false;
};

} // namespace paralog

#endif // PARALOG_WORKLOADS_SCRIPT_PROGRAM_HPP
