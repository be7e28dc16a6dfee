#include "metered_env.h"

#include <chrono>
#include <thread>

#include "span_trace.h"

namespace perfbench {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Span names per kind and operation; string literals, as spans require.
constexpr const char* kReadSpan[kFileKinds] = {
    "storage.db.read", "storage.wal.read", "storage.pagelog.read",
    "storage.maplog.read", "storage.other.read"};
constexpr const char* kWriteSpan[kFileKinds] = {
    "storage.db.write", "storage.wal.write", "storage.pagelog.write",
    "storage.maplog.write", "storage.other.write"};
constexpr const char* kSyncSpan[kFileKinds] = {
    "storage.db.sync", "storage.wal.sync", "storage.pagelog.sync",
    "storage.maplog.sync", "storage.other.sync"};

// The calling thread's previous read, for grouping a record's header and
// payload into one device read.
struct LastRead {
  const void* file = nullptr;
  uint64_t end = 0;
  uint64_t len = 0;
};
thread_local LastRead last_read;

// The calling thread's cells in the MeteredEnv it used last.
struct LocalCells {
  uint64_t env = 0;
  void* cells = nullptr;
};
thread_local LocalCells local_cells;

std::atomic<uint64_t> next_env_id{1};

}  // namespace

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kDb:
      return "db";
    case FileKind::kWal:
      return "wal";
    case FileKind::kPagelog:
      return "pagelog";
    case FileKind::kMaplog:
      return "maplog";
    case FileKind::kOther:
      return "other";
  }
  return "other";
}

FileKind ClassifyKind(const std::string& name) {
  if (EndsWith(name, ".db")) return FileKind::kDb;
  if (EndsWith(name, ".wal")) return FileKind::kWal;
  if (EndsWith(name, ".pagelog")) return FileKind::kPagelog;
  if (EndsWith(name, ".maplog")) return FileKind::kMaplog;
  return FileKind::kOther;
}

FileScope ClassifyScope(const std::string& name) {
  return name.find("_data.") != std::string::npos ? FileScope::kData
                                                  : FileScope::kMeta;
}

IoCounts& IoCounts::operator+=(const IoCounts& o) {
  reads += o.reads;
  read_bytes += o.read_bytes;
  read_ns += o.read_ns;
  writes += o.writes;
  write_bytes += o.write_bytes;
  write_ns += o.write_ns;
  syncs += o.syncs;
  sync_ns += o.sync_ns;
  return *this;
}

IoCounts IoCounts::operator-(const IoCounts& o) const {
  IoCounts d;
  d.reads = reads - o.reads;
  d.read_bytes = read_bytes - o.read_bytes;
  d.read_ns = read_ns - o.read_ns;
  d.writes = writes - o.writes;
  d.write_bytes = write_bytes - o.write_bytes;
  d.write_ns = write_ns - o.write_ns;
  d.syncs = syncs - o.syncs;
  d.sync_ns = sync_ns - o.sync_ns;
  return d;
}

IoCounts IoSnapshot::Scope(FileScope scope) const {
  IoCounts sum;
  for (const IoCounts& c : cells[static_cast<int>(scope)]) sum += c;
  return sum;
}

IoSnapshot IoSnapshot::operator-(const IoSnapshot& o) const {
  IoSnapshot d;
  for (int s = 0; s < kFileScopes; ++s) {
    for (int k = 0; k < kFileKinds; ++k) {
      d.cells[s][k] = cells[s][k] - o.cells[s][k];
    }
  }
  return d;
}

IoSnapshot& IoSnapshot::operator+=(const IoSnapshot& o) {
  for (int s = 0; s < kFileScopes; ++s) {
    for (int k = 0; k < kFileKinds; ++k) cells[s][k] += o.cells[s][k];
  }
  return *this;
}

MeteredEnv::MeteredEnv(rql::storage::Env* base)
    : base_(base), id_(next_env_id.fetch_add(1, std::memory_order_relaxed)) {}

MeteredEnv::Cell* MeteredEnv::LocalCell(FileScope scope, FileKind kind) {
  if (local_cells.env != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<Cells>& cells = threads_[std::this_thread::get_id()];
    if (cells == nullptr) cells = std::make_unique<Cells>();
    local_cells = {id_, cells.get()};
  }
  Cells& cells = *static_cast<Cells*>(local_cells.cells);
  return &cells[static_cast<int>(scope)][static_cast<int>(kind)];
}

/// File wrapper feeding its (scope, kind) cell of the calling thread.
class MeteredFile : public rql::storage::File {
 public:
  MeteredFile(MeteredEnv* env, std::unique_ptr<rql::storage::File> base,
              FileScope scope, FileKind kind)
      : env_(env),
        base_(std::move(base)),
        scope_(scope),
        kind_(kind),
        delayed_(scope == FileScope::kData && kind == FileKind::kPagelog) {}

  rql::Status Read(uint64_t offset, uint64_t n, char* buf) const override {
    const int64_t start = NowNs();
    MeteredEnv::Cell* cell = env_->LocalCell(scope_, kind_);
    const bool continues = last_read.file == this &&
                           last_read.end == offset &&
                           last_read.len <= MeteredEnv::kHeaderBytes;
    last_read = {this, offset + n, n};
    if (!continues) {
      cell->reads.fetch_add(1, std::memory_order_relaxed);
      const int64_t delay = delayed_ ? env_->pagelog_read_delay_us() : 0;
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
    rql::Status s = base_->Read(offset, n, buf);
    const int64_t end = NowNs();
    cell->read_bytes.fetch_add(static_cast<int64_t>(n),
                               std::memory_order_relaxed);
    cell->read_ns.fetch_add(end - start, std::memory_order_relaxed);
    Tracer::Get().Leaf(kReadSpan[static_cast<int>(kind_)], start, end);
    return s;
  }

  rql::Status Write(uint64_t offset, uint64_t n, const char* buf) override {
    const int64_t start = NowNs();
    rql::Status s = base_->Write(offset, n, buf);
    RecordWrite(n, start);
    return s;
  }

  rql::Status Append(uint64_t n, const char* buf, uint64_t* offset) override {
    const int64_t start = NowNs();
    rql::Status s = base_->Append(n, buf, offset);
    RecordWrite(n, start);
    return s;
  }

  uint64_t Size() const override { return base_->Size(); }

  rql::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }

  rql::Status Sync() override {
    const int64_t start = NowNs();
    std::this_thread::sleep_for(
        std::chrono::microseconds(MeteredEnv::kSyncDelayUs));
    const int64_t end = NowNs();
    MeteredEnv::Cell* cell = env_->LocalCell(scope_, kind_);
    cell->syncs.fetch_add(1, std::memory_order_relaxed);
    cell->sync_ns.fetch_add(end - start, std::memory_order_relaxed);
    Tracer::Get().Leaf(kSyncSpan[static_cast<int>(kind_)], start, end);
    return rql::Status::OK();
  }

 private:
  void RecordWrite(uint64_t n, int64_t start) {
    const int64_t end = NowNs();
    MeteredEnv::Cell* cell = env_->LocalCell(scope_, kind_);
    cell->writes.fetch_add(1, std::memory_order_relaxed);
    cell->write_bytes.fetch_add(static_cast<int64_t>(n),
                                std::memory_order_relaxed);
    cell->write_ns.fetch_add(end - start, std::memory_order_relaxed);
    Tracer::Get().Leaf(kWriteSpan[static_cast<int>(kind_)], start, end);
  }

  MeteredEnv* env_;
  std::unique_ptr<rql::storage::File> base_;
  FileScope scope_;
  FileKind kind_;
  bool delayed_;
};

rql::Result<std::unique_ptr<rql::storage::File>> MeteredEnv::OpenFile(
    const std::string& name) {
  auto base = base_->OpenFile(name);
  if (!base.ok()) return base.status();
  return std::unique_ptr<rql::storage::File>(new MeteredFile(
      this, std::move(base).value(), ClassifyScope(name), ClassifyKind(name)));
}

std::map<std::thread::id, IoSnapshot> MeteredEnv::SnapshotByThread() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::thread::id, IoSnapshot> out;
  for (const auto& [thread, cells] : threads_) {
    IoSnapshot& snap = out[thread];
    for (int s = 0; s < kFileScopes; ++s) {
      for (int k = 0; k < kFileKinds; ++k) {
        const Cell& c = (*cells)[s][k];
        IoCounts& o = snap.cells[s][k];
        o.reads = c.reads.load(std::memory_order_relaxed);
        o.read_bytes = c.read_bytes.load(std::memory_order_relaxed);
        o.read_ns = c.read_ns.load(std::memory_order_relaxed);
        o.writes = c.writes.load(std::memory_order_relaxed);
        o.write_bytes = c.write_bytes.load(std::memory_order_relaxed);
        o.write_ns = c.write_ns.load(std::memory_order_relaxed);
        o.syncs = c.syncs.load(std::memory_order_relaxed);
        o.sync_ns = c.sync_ns.load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

IoSnapshot MeteredEnv::Snapshot() const {
  IoSnapshot sum;
  for (const auto& [thread, snap] : SnapshotByThread()) sum += snap;
  return sum;
}

}  // namespace perfbench
