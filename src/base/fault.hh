/**
 * @file
 * Typed fault taxonomy for the fault-tolerance layer.
 *
 * Everything that can go wrong inside a campaign job maps onto one
 * FaultKind, which is what the driver's retry policy keys on:
 *
 *   Transient       worth retrying (a flaky compile, an injected
 *                   chaos fault tagged transient);
 *   Permanent       deterministic failure — retrying would reproduce
 *                   it, so the job is quarantined immediately;
 *   BudgetExceeded  the job blew a RunBudget deadline (wall-clock
 *                   maxWallMs or hardMaxInsts) and was cancelled;
 *   Cancelled       a CancelToken was observed mid-run (the job's
 *                   deadline passed or its campaign was cancelled;
 *                   the driver reclassifies it as BudgetExceeded).
 *
 * Layers deep in the stack (uarch::Core, arch::Emulator, runners)
 * throw these instead of ad-hoc std::runtime_error so the campaign
 * driver can tell a retryable hiccup from a lost cause without
 * string-matching what().
 */

#ifndef DVI_BASE_FAULT_HH
#define DVI_BASE_FAULT_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace dvi
{
namespace base
{

/** How a failure should be treated by whoever catches it. */
enum class FaultKind
{
    Transient,
    Permanent,
    BudgetExceeded,
    Cancelled,
};

/** Lower-case report/telemetry token ("transient", "permanent",
 * "budget-exceeded", "cancelled"). */
inline const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Transient:      return "transient";
    case FaultKind::Permanent:      return "permanent";
    case FaultKind::BudgetExceeded: return "budget-exceeded";
    case FaultKind::Cancelled:      return "cancelled";
    }
    return "unknown";
}

/** Base of every typed fault. what() is the diagnostic. */
class Fault : public std::runtime_error
{
  public:
    Fault(FaultKind kind, const std::string &message)
        : std::runtime_error(message), kind_(kind)
    {
    }

    FaultKind kind() const { return kind_; }

  private:
    FaultKind kind_;
};

/** A fault raised by an armed failpoint (base/failpoint.hh). */
class FaultInjected : public Fault
{
  public:
    FaultInjected(FaultKind kind, const std::string &site)
        : Fault(kind, "injected fault at failpoint '" + site + "' (" +
                          faultKindName(kind) + ")"),
          site_(site)
    {
    }

    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/**
 * A cooperative cancel request, polled by the simulation loops
 * (uarch::Core::run every 1024 iterations, arch::Emulator::run every
 * 4096 instructions in either tier): requested() once `flag` reads
 * true or `deadline` has passed. Either half may be absent — a null
 * flag, or the default never-reached deadline.
 */
struct CancelToken
{
    const std::atomic<bool> *flag = nullptr;
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    bool
    requested() const
    {
        return (flag && flag->load(std::memory_order_relaxed)) ||
               std::chrono::steady_clock::now() >= deadline;
    }
};

/** Cooperative cancellation observed mid-run (deadline, shutdown). */
class CancelledError : public Fault
{
  public:
    explicit CancelledError(const std::string &message)
        : Fault(FaultKind::Cancelled, message)
    {
    }
};

/** A RunBudget deadline (wall-clock or instruction) was exceeded. */
class BudgetExceededError : public Fault
{
  public:
    explicit BudgetExceededError(const std::string &message)
        : Fault(FaultKind::BudgetExceeded, message)
    {
    }
};

} // namespace base
} // namespace dvi

#endif // DVI_BASE_FAULT_HH
