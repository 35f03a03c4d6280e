/**
 * @file
 * Execution event stream.
 *
 * The interpreter publishes one event per observable action: memory
 * accesses, synchronization operations, thread lifecycle, outputs.
 * Race detection, trace recording, and schedule enforcement are all
 * event consumers, mirroring how Portend's detector and record/replay
 * engine hook the Cloud9 interpreter.
 */

#ifndef PORTEND_RT_EVENTS_H
#define PORTEND_RT_EVENTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/inst.h"

namespace portend::rt {

/** Thread identifier (dense, starting at 0 for main). */
using ThreadId = int;

/** Kinds of observable events. */
enum class EventKind : std::uint8_t {
    MemRead,       ///< load from a global cell
    MemWrite,      ///< store to a global cell
    MutexLock,     ///< mutex acquired
    MutexUnlock,   ///< mutex released
    CondWait,      ///< wait completed (mutex re-acquired)
    CondSignal,    ///< signal/broadcast issued
    BarrierWait,   ///< barrier passed
    ThreadCreate,  ///< child spawned (other = child tid)
    ThreadJoin,    ///< join completed (other = joined tid)
    ThreadStart,   ///< first scheduling of a thread
    ThreadExit,    ///< thread finished
    Output,        ///< output system call performed
};

/**
 * One observable action.
 *
 * Events are plain values that allocate nothing: `loc` borrows the
 * location from the program's shared decode (DecodedInst::loc),
 * which lives as long as the program or any interpreter running it.
 * A sink that keeps a location beyond that must copy it (the race
 * detectors copy one only into a race they report).
 */
struct Event
{
    EventKind kind;
    ThreadId tid = -1;      ///< acting thread
    int pc = -1;            ///< program counter of the instruction
    std::uint64_t step = 0; ///< global step index at emission

    int cell = -1;          ///< flat cell id (memory events)
    bool atomic = false;    ///< access from AtomicRmW
    std::uint64_t occurrence = 0; ///< nth dynamic execution of (tid, pc)
    std::uint64_t cell_occurrence = 0; ///< nth access of (tid, cell)
    ir::SyncId sid = -1;    ///< sync object (sync events)
    ThreadId other = -1;    ///< peer thread (create/join)
    const ir::SourceLoc *loc = nullptr; ///< pseudo source location
                                        ///< (null for thread exit)
};

/**
 * Event consumer interface.
 *
 * Sinks attach to an Interpreter; they are observers and must not
 * mutate execution state.
 */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /**
     * Called for every event, in program order, at the instruction
     * that produced it: the interpreter has executed nothing since,
     * so a sink may read live interpreter state (a semantic monitor
     * samples memory cells).
     */
    virtual void onEvent(const Event &ev) = 0;

    /**
     * Exact loop detection hook (see Interpreter::run): append the
     * part of this sink's state that can still change what it does
     * and return true — vouching that skipping whole cycles of
     * events leaves the sink as it would have been after observing
     * them. The default cannot vouch, and a run with such a sink
     * is never shortened.
     */
    virtual bool
    loopKey(std::vector<std::uint64_t> &key) const
    {
        (void)key;
        return false;
    }
};

} // namespace portend::rt

#endif // PORTEND_RT_EVENTS_H
