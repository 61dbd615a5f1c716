#include "ppd/resil/sweep_guard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "ppd/obs/metrics.hpp"
#include "ppd/resil/checkpoint.hpp"
#include "ppd/resil/deadline.hpp"
#include "ppd/resil/retry.hpp"
#include "ppd/util/error.hpp"

namespace ppd::resil {

namespace {

/// Seconds between periodic checkpoint saves while a sweep runs.
constexpr double kCheckpointIntervalSeconds = 5.0;

std::string encode_row(const VerdictRow& row) {
  std::string s(row.size(), '0');
  for (std::size_t i = 0; i < row.size(); ++i)
    if (row[i]) s[i] = '1';
  return s;
}

VerdictRow decode_row(const std::string& payload) {
  VerdictRow row(payload.size(), 0);
  for (std::size_t i = 0; i < payload.size(); ++i)
    row[i] = payload[i] == '1' ? 1 : 0;
  return row;
}

}  // namespace

GuardedSweep run_guarded_sweep(
    const SweepPolicy& policy, std::uint64_t seed,
    const std::function<std::uint64_t(std::size_t)>& item_seed,
    exec::ParallelOptions par, const std::string& domain, std::size_t items,
    std::size_t width, const std::function<VerdictRow(std::size_t)>& row) {
  const std::string& path = policy.checkpoint_path;  // "" = no checkpointing
  Checkpoint checkpoint;
  if (policy.resume) {
    PPD_REQUIRE(!path.empty(), "resume requested without a checkpoint path");
    checkpoint = Checkpoint::load(path);
    checkpoint.bind(seed, items, par.context);
    // Quarantined items are re-run on resume (and, being a pure function of
    // the item index, fail identically); keeping the stored entries would
    // double-count them.
    checkpoint.clear_quarantine();
    for (std::size_t i = 0; i < items; ++i)
      if (checkpoint.has(i)) {
        const std::string payload = checkpoint.payload(i);
        if (payload.size() != width ||
            payload.find_first_not_of("01") != std::string::npos)
          throw ParseError(path + ": the payload of item " +
                           std::to_string(i) + " is not a row of " +
                           std::to_string(width) + " '0'/'1' verdicts");
      }
  } else if (!path.empty()) {
    checkpoint.bind(seed, items, par.context);
  }
  std::mutex save_mutex;  // serializes checkpoint writes
  auto last_save = std::chrono::steady_clock::now();
  const auto save = [&](bool force) {
    if (path.empty()) return;
    const std::lock_guard<std::mutex> lock(save_mutex);
    const auto now = std::chrono::steady_clock::now();
    if (!force && std::chrono::duration<double>(now - last_save).count() <
                      kCheckpointIntervalSeconds)
      return;
    checkpoint.save(path);
    last_save = now;
  };

  std::mutex entries_mutex;
  std::vector<QuarantineEntry> entries;  // unsorted until the end
  if (policy.quarantine) {
    par.on_item_error = [&](std::size_t item, const std::exception_ptr& error) {
      QuarantineEntry entry;
      entry.item = item;
      entry.seed = item_seed ? item_seed(item) : item;
      entry.rung = take_last_ladder();
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        entry.error = e.what();
      } catch (...) {
        entry.error = "unknown error";
      }
      obs::counter("resil.quarantined").add();
      const std::lock_guard<std::mutex> lock(entries_mutex);
      entries.push_back(entry);
      if (!path.empty()) checkpoint.record_quarantine(std::move(entry));
      return true;  // swallow: the sweep keeps going
    };
  }
  const Watchdog watchdog(par.cancel, policy.sweep_budget_seconds);
  exec::CancelToken cancel = par.cancel;
  std::atomic<std::size_t> fresh_completed{0};

  GuardedSweep out;
  exec::SweepStats stats;
  try {
    out.rows = exec::parallel_map(
        items,
        [&](std::size_t item) {
          if (policy.resume && checkpoint.has(item))
            return decode_row(checkpoint.payload(item));
          const FaultScope inject(policy.faults, item);
          inject_item_delay();
          inject_item_failure();
          VerdictRow result = row(item);
          if (!path.empty()) {
            checkpoint.record(item, encode_row(result));
            save(false);
          }
          if (fresh_completed.fetch_add(1, std::memory_order_relaxed) + 1 ==
              policy.faults.cancel_after_items)
            cancel.cancel();
          return result;
        },
        par, &stats);
  } catch (const exec::CancelledError&) {
    save(true);
    if (watchdog.fired())
      throw TimeoutError("sweep exceeded its wall budget of " +
                         std::to_string(policy.sweep_budget_seconds) +
                         " s: " + par.context);
    throw;
  }
  exec::record_sweep(domain, stats);
  save(true);
  // Insertion order depends on thread scheduling; the report does not.
  std::sort(entries.begin(), entries.end(),
            [](const QuarantineEntry& a, const QuarantineEntry& b) {
              return a.item < b.item;
            });
  out.quarantine.items = items;
  out.quarantine.entries = std::move(entries);
  return out;
}

}  // namespace ppd::resil
