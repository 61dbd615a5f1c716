// Append-only session journal — the crash-recovery story for ppdd.
//
// Every durable session mutation is one flat-JSON line appended (and
// flushed) to a single journal file:
//
//   {"j":"open","token":"s1"}
//   {"j":"set","token":"s1","key":"points","value":"5"}
//   {"j":"upload","token":"s1","name":"c.bench","fnv":"...","text":"..."}
//   {"j":"next","token":"s1","id":4}            (compaction snapshot only)
//   {"j":"accept","token":"s1","id":3,"kind":"transfer","arg":""}
//   {"j":"ack","token":"s1","id":3,"event":"{...result line...}"}
//   {"j":"close","token":"s1"}
//
// The journal keeps an in-memory mirror of the live sessions; once the
// file outgrows `rotate_bytes` the mirror is snapshotted to `<path>.tmp`
// and atomically renamed over the journal (the resil::Checkpoint idiom),
// so closed sessions and superseded acks never accumulate on disk and a
// crash during rotation leaves either the old or the new file, never a
// torn one.
//
// replay() rebuilds the mirror from a journal file; a restarted
// `ppdd --recover` turns each recovered entry back into a detached
// Session that a reconnecting client can RESUME. Acked events are replayed
// verbatim, which is what makes re-issue idempotent: a re-issued acked qid
// is answered from the journal, byte-identical, with no re-execution.
//
// Durability model: one flush per record — a kill -9 of the daemon loses
// nothing already flushed (page cache survives process death); fsync
// against power loss is deliberately out of scope for a loopback service.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>

namespace ppd::net {

class SessionJournal {
 public:
  struct RecoveredSession {
    std::map<std::string, std::string> config;
    std::map<std::string, std::string> uploads;
    /// Accepted-but-unacked qids -> "kind arg" (informational; re-issue is
    /// client-driven).
    std::map<std::uint64_t, std::string> accepted;
    /// Acked qid -> the exact result event line that was delivered.
    std::map<std::uint64_t, std::string> acked;
    std::uint64_t next_id = 0;
    bool closed = false;
  };
  using State = std::map<std::string, RecoveredSession>;

  /// Open `path` for appending. A non-empty `seed` (the --recover state)
  /// is compacted into a fresh snapshot first, atomically replacing
  /// whatever the file held. Throws ppd::ParseError on I/O failure.
  explicit SessionJournal(std::string path,
                          std::size_t rotate_bytes = 4u << 20,
                          State seed = {});

  void record_open(const std::string& token);
  void record_set(const std::string& token, const std::string& key,
                  const std::string& value);
  void record_upload(const std::string& token, const std::string& name,
                     const std::string& text);
  void record_accept(const std::string& token, std::uint64_t id,
                     const std::string& kind, const std::string& arg);
  void record_ack(const std::string& token, std::uint64_t id,
                  const std::string& event_line);
  void record_close(const std::string& token);

  /// Rebuild the session state from a journal file. An unparseable line
  /// (a torn final append) or a record with a malformed field (an id that
  /// is not a plain unsigned integer, a missing member) is skipped whole.
  /// Missing file => empty state. Closed sessions are elided.
  [[nodiscard]] static State replay(const std::string& path);

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Compactions performed (observability; tested by the rotation test).
  [[nodiscard]] std::uint64_t rotations() const;
  /// Bytes currently in the journal file (approximate, post-append).
  [[nodiscard]] std::size_t bytes() const;

 private:
  void append_locked(const std::string& line);
  void rotate_locked();
  static void write_state(std::ostream& os, const State& state);

  const std::string path_;
  const std::size_t rotate_bytes_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::size_t bytes_ = 0;
  std::uint64_t rotations_ = 0;
  State live_;  ///< mirror for compaction (closed sessions erased)
};

}  // namespace ppd::net
