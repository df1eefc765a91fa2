// The per-property monitor interface shared by the three backends:
//  * InterpretedMonitor executes an intermediate-language state machine
//    (what the generated C code would do, kept as data);
//  * CompiledMonitor runs the machine flattened into bytecode (compiled.h);
//  * the builtin monitors in builtin.h mirror Figure 10's hand-laid-out
//    property_t structures for the fast path.
// All three are driven by MonitorSet, which owns persistence and cycle
// accounting: it charges every machine its backend's one step cost.
#ifndef SRC_MONITOR_MONITOR_H_
#define SRC_MONITOR_MONITOR_H_

#include <cstddef>
#include <string>

#include "src/kernel/checker.h"

namespace artemis {

class Monitor {
 public:
  virtual ~Monitor() = default;

  // Processes one event; returns true and fills every field of `verdict`
  // when the property failed on this event. Mutates internal (FRAM-resident)
  // state. Reads only the event and this machine's own state, never the
  // Mcu: MonitorSet charges a run of steps before it steps them. The
  // verdict's property views storage this monitor (or the artifact it
  // shares) owns.
  virtual bool Step(const MonitorEvent& event, MonitorVerdict* verdict) = 0;

  // Whether Step can react to an event of `kind` on `task` from some
  // state, read off the immutable machine. False promises that every such
  // Step returns false and leaves the machine unchanged, whatever its
  // state and the event's other fields; MonitorSet then charges the
  // machine for the event without stepping it.
  virtual bool Reacts(EventKind kind, TaskId task) const = 0;

  // One-time initialization at first boot.
  virtual void HardReset() = 0;

  // The runtime restarted `path`; in-flight machines re-initialize
  // (Section 3.3), counting machines keep their counters.
  virtual void OnPathRestart(PathId path) = 0;

  virtual const std::string& label() const = 0;

  // Persistent (FRAM) footprint in bytes, for Table 2.
  virtual std::size_t FramBytes() const = 0;
};

}  // namespace artemis

#endif  // SRC_MONITOR_MONITOR_H_
