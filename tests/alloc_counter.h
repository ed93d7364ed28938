// Test-only heap-allocation counter.
//
// alloc_counter.cpp replaces the global operator new/delete with versions
// that bump an atomic counter, letting tests assert that a code region
// performs zero heap allocations (the steady-state training-step contract,
// DESIGN.md §12) or allocates less than a given number of bytes.  Link alloc_counter.cpp into the test binary to activate
// the hook; binaries that do not link it are unaffected.
#pragma once

#include <cstddef>

namespace cmfl::testing {

/// Resets the global allocation counter to zero.
void reset_alloc_count() noexcept;

/// Number of operator new / new[] calls (any alignment) since the last
/// reset, across all threads.
std::size_t alloc_count() noexcept;

/// Bytes requested by those calls since the last reset, across all threads.
std::size_t alloc_bytes() noexcept;

}  // namespace cmfl::testing
