/**
 * @file
 * Error-reporting helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (a simulator bug);
 *            aborts so a debugger or core dump can inspect the state.
 * fatal()  — the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments); exits cleanly.
 * warn()   — something is suspicious but the simulation continues.
 * inform() — plain status output.
 *
 * warn() and inform() are thread-safe: each message (prefix, text,
 * newline) is composed into one buffer and written with a single
 * stdio call, so messages from parallel campaign workers never
 * interleave mid-line. A process-wide hook (setLogHook) can mirror
 * them into another consumer — obs::setGlobalSink uses it to turn
 * log lines into telemetry `log` events.
 */

#ifndef DVI_BASE_LOGGING_HH
#define DVI_BASE_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace dvi
{

namespace detail
{

/** Stream-compose a message from variadic parts. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Observer of warn()/inform() messages: called with the level token
 * ("warn" / "info") and the composed message after the message is
 * written to its stream. Must be safe to call from any thread.
 */
using LogHook = void (*)(const char *level, const std::string &msg);

/** Install (or clear, with nullptr) the process-wide log hook. */
void setLogHook(LogHook hook);

#define panic(...)                                                         \
    ::dvi::detail::panicImpl(__FILE__, __LINE__,                           \
                             ::dvi::detail::composeMessage(__VA_ARGS__))

#define fatal(...)                                                         \
    ::dvi::detail::fatalImpl(__FILE__, __LINE__,                           \
                             ::dvi::detail::composeMessage(__VA_ARGS__))

#define warn(...)                                                          \
    ::dvi::detail::warnImpl(::dvi::detail::composeMessage(__VA_ARGS__))

#define inform(...)                                                        \
    ::dvi::detail::informImpl(::dvi::detail::composeMessage(__VA_ARGS__))

/**
 * @name Cold failure paths
 * The checked helpers on the emulator's per-instruction path
 * (RegMask, Lvm, arch::Memory, the renamer) carry a panic_if each.
 * Composing the message inline would make every one of them too big
 * to inline, so the condition is hinted false and the formatting
 * moves into a noinline, cold lambda: the hot path keeps one
 * compare and a branch to out-of-line code. Non-GNU compilers get
 * the plain form; the message text is the same either way.
 *
 * The same split applies to a helper with a rare slow path (the
 * page-TLB miss of arch::Memory): DVI_ALWAYS_INLINE forces the small
 * fast path into every caller, even where the optimizer's size
 * heuristics would keep it out of line, and DVI_NOINLINE_COLD keeps
 * the slow path a call, so forcing the fast path inline does not
 * copy the slow path into every caller too.
 * @{
 */
#if defined(__GNUC__) || defined(__clang__)
#define DVI_UNLIKELY(cond) __builtin_expect(static_cast<bool>(cond), 0)
#define DVI_COLD_CALL(...)                                                 \
    [&]() __attribute__((noinline, cold, noreturn)) { __VA_ARGS__; }()
#define DVI_ALWAYS_INLINE inline __attribute__((always_inline))
#define DVI_NOINLINE_COLD __attribute__((noinline, cold))
#else
#define DVI_UNLIKELY(cond) static_cast<bool>(cond)
#define DVI_COLD_CALL(...) __VA_ARGS__
#define DVI_ALWAYS_INLINE inline
#define DVI_NOINLINE_COLD
#endif
/** @} */

/** Assert an invariant; panics (simulator bug) when violated. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (DVI_UNLIKELY(cond)) {                                          \
            DVI_COLD_CALL(panic(__VA_ARGS__));                             \
        }                                                                  \
    } while (0)

/** Reject a user-provided configuration; fatal when violated. */
#define fatal_if(cond, ...)                                                \
    do {                                                                   \
        if (DVI_UNLIKELY(cond)) {                                          \
            DVI_COLD_CALL(fatal(__VA_ARGS__));                             \
        }                                                                  \
    } while (0)

} // namespace dvi

#endif // DVI_BASE_LOGGING_HH
