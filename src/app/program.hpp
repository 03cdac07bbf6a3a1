/**
 * @file
 * Interface implemented by workloads: a per-thread instruction generator.
 */

#ifndef PARALOG_APP_PROGRAM_HPP
#define PARALOG_APP_PROGRAM_HPP

#include <cstddef>
#include <memory>
#include <vector>

#include "isa/inst.hpp"

namespace paralog {

class ThreadContext;

/**
 * One simulated application thread's instruction source.
 *
 * take() is called when every instruction it handed over before has
 * retired; the generator may read register values from the context (set
 * by earlier loads), which is how pointer-chasing workloads are
 * expressed.
 */
class ThreadProgram
{
  public:
    virtual ~ThreadProgram() = default;

    /**
     * Append the next batch of instructions to @p out and return how
     * many were appended; appending nothing terminates the thread. A
     * generator that reads registers between instructions appends one
     * at a time.
     */
    virtual std::size_t take(std::vector<Inst> &out, ThreadContext &tc) = 0;
};

using ThreadProgramPtr = std::unique_ptr<ThreadProgram>;

} // namespace paralog

#endif // PARALOG_APP_PROGRAM_HPP
