#pragma once
// Test helper: enqueue a kernel whose body is a lambda. The lambda rides
// the runtime's one kernel path (KernelWork) as a single chunk whose
// context the op owns, so a threaded engine may run it after the caller
// returned.

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sys/stream.hpp"

namespace neon::sys {

inline void enqueueKernel(Stream& stream, std::string name, size_t items, KernelCostHint hint,
                          std::function<void()> body)
{
    using Body = std::function<void()>;
    auto     fn = std::make_shared<Body>(std::move(body));
    KernelOp op;
    op.name = std::move(name);
    op.items = items;
    op.hint = hint;
    op.work.run = [](void* ctx, int32_t, int32_t) { (*static_cast<Body*>(ctx))(); };
    op.work.ctx = fn.get();
    op.work.chunks = 1;
    op.work.owner = std::move(fn);
    stream.enqueue(std::move(op));
}

}  // namespace neon::sys
