// cache::Store tests: CRC-framed journal round trips, torn-tail
// crash-injection recovery (a writer that died mid-append must cost only
// the torn tail, and recovery must land on the last good generation),
// CRC-rejected garbage records, record-level compaction (byte-stable
// replay across generation bumps), pipeline-version semantics, and
// multi-writer safety for N threads and N forked processes sharing one
// store directory.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "support/cachestore.hpp"
#include "support/io.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace pc = pareval::cache;
namespace ps = pareval::support;
using ps::Json;

namespace {

constexpr std::uint64_t kVersion = 0x1070;

std::string temp_store_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Json record(int id, const std::string& tag = "r") {
  Json j = Json::object();
  j.set("tag", tag);
  j.set("id", id);
  return j;
}

/// Replay `stream` and return every record's "id", in replay order.
std::vector<int> replay_ids(pc::Store& store, const std::string& stream,
                            std::uint64_t version = kVersion) {
  std::vector<int> ids;
  store.replay(stream, version, [&ids](const Json& r) {
    ids.push_back(static_cast<int>(r["id"].as_int()));
  });
  return ids;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void truncate_file(const std::string& path, std::size_t keep) {
  const std::string text = read_all(path);
  ASSERT_LT(keep, text.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text.substr(0, keep);
}

}  // namespace

TEST(CacheStore, AppendReplayRoundTripAndStats) {
  pc::Store store(temp_store_dir("cs_roundtrip"));
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append("s", kVersion, record(1)));
  ASSERT_TRUE(store.append_batch("s", kVersion, {record(2), record(3)}));

  pc::Store reader(store.dir());
  EXPECT_EQ(replay_ids(reader, "s"), (std::vector<int>{1, 2, 3}));

  const pc::StreamStats w = store.stats("s");
  EXPECT_EQ(w.records_appended, 3u);
  EXPECT_EQ(w.generation, 0u);
  EXPECT_GT(w.journal_bytes, 0u);
  const pc::StreamStats r = reader.stats("s");
  EXPECT_EQ(r.records_replayed, 3u);
  EXPECT_EQ(r.torn_records_dropped, 0u);
  EXPECT_EQ(r.crc_records_dropped, 0u);
}

TEST(CacheStore, EmptyBatchSeedsTheStream) {
  // A layer that computed nothing still stamps the index on flush, so
  // the next attach() finds a warm (empty) stream instead of a cold one.
  pc::Store store(temp_store_dir("cs_empty_batch"));
  ASSERT_TRUE(store.open());
  EXPECT_FALSE(store.replay("s", kVersion, [](const Json&) {}));
  ASSERT_TRUE(store.append_batch("s", kVersion, {}));
  EXPECT_TRUE(store.replay("s", kVersion, [](const Json&) { FAIL(); }));
}

TEST(CacheStore, TornTailRecordIsDroppedOnReplay) {
  pc::Store store(temp_store_dir("cs_torn"));
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append_batch("s", kVersion,
                                 {record(1), record(2), record(3)}));
  // Crash injection: the writer died mid-append of record 3 — cut the
  // journal 5 bytes into that record's frame.
  const std::string journal = store.dir() + "/s.journal";
  const std::size_t full = ps::file_size(journal);
  const std::size_t tail =
      pc::frame_record(record(3).dump()).size();
  truncate_file(journal, full - tail + 5);

  pc::Store reader(store.dir());
  EXPECT_EQ(replay_ids(reader, "s"), (std::vector<int>{1, 2}));
  EXPECT_EQ(reader.stats("s").torn_records_dropped, 1u);
  EXPECT_EQ(reader.stats("s").records_replayed, 2u);

  // The torn tail is gone for good after the next compaction: the folded
  // snapshot holds exactly the intact prefix.
  ASSERT_TRUE(reader.compact("s", kVersion));
  pc::Store again(store.dir());
  EXPECT_EQ(replay_ids(again, "s"), (std::vector<int>{1, 2}));
}

TEST(CacheStore, TornJournalRecoversToLastGoodGeneration) {
  pc::Store store(temp_store_dir("cs_torn_gen"));
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append_batch("s", kVersion, {record(1), record(2)}));
  ASSERT_TRUE(store.compact("s", kVersion));  // generation 1 snapshot
  ASSERT_TRUE(store.append_batch("s", kVersion, {record(3), record(4)}));

  // A writer died mid-append of record 4: the snapshot (generation 1)
  // plus the journal's intact prefix must survive.
  const std::string journal = store.dir() + "/s.journal";
  const std::size_t tail = pc::frame_record(record(4).dump()).size();
  truncate_file(journal, ps::file_size(journal) - tail + 3);

  pc::Store reader(store.dir());
  EXPECT_EQ(replay_ids(reader, "s"), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(reader.stats("s").generation, 1u);
  EXPECT_EQ(reader.stats("s").torn_records_dropped, 1u);
}

TEST(CacheStore, CrcMismatchSkipsOnlyTheGarbageRecord) {
  pc::Store store(temp_store_dir("cs_crc"));
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append("s", kVersion, record(1)));
  // Inject a complete, length-correct frame whose payload was bit-rotted
  // after framing: CRC rejects it, but the length field still delimits
  // it, so the record appended after it must survive.
  std::string garbage = pc::frame_record(record(99).dump());
  garbage[garbage.size() - 2] ^= 0x20;  // last payload byte, header intact
  ASSERT_TRUE(ps::append_file(store.dir() + "/s.journal", garbage));
  ASSERT_TRUE(store.append("s", kVersion, record(2)));

  pc::Store reader(store.dir());
  EXPECT_EQ(replay_ids(reader, "s"), (std::vector<int>{1, 2}));
  EXPECT_EQ(reader.stats("s").crc_records_dropped, 1u);
  EXPECT_EQ(reader.stats("s").torn_records_dropped, 0u);
}

TEST(CacheStore, CompactionIsByteStableAndBumpsGeneration) {
  pc::Store store(temp_store_dir("cs_compact"));
  ASSERT_TRUE(store.open());
  // Duplicate payloads (two workers scoring the same key emit identical
  // records) collapse to their first occurrence.
  ASSERT_TRUE(store.append_batch(
      "s", kVersion, {record(1), record(2), record(1), record(3)}));
  const std::vector<int> before = replay_ids(store, "s");
  EXPECT_EQ(before, (std::vector<int>{1, 2, 1, 3}));

  ASSERT_TRUE(store.compact("s", kVersion));
  EXPECT_EQ(store.stats("s").generation, 1u);
  EXPECT_EQ(store.journal_bytes("s"), 0u);  // journal reset
  EXPECT_EQ(replay_ids(store, "s"), (std::vector<int>{1, 2, 3}));
  const std::string snap1 = read_all(store.dir() + "/s.1.snap");
  EXPECT_FALSE(snap1.empty());

  // Replayed state is byte-stable across further compactions: the
  // deduplicated record sequence never changes again.
  ASSERT_TRUE(store.append("s", kVersion, record(4)));
  ASSERT_TRUE(store.compact("s", kVersion));
  EXPECT_EQ(store.stats("s").generation, 2u);
  EXPECT_FALSE(std::filesystem::exists(store.dir() + "/s.1.snap"))
      << "superseded snapshot must be cleaned up";
  const std::string snap2 = read_all(store.dir() + "/s.2.snap");
  EXPECT_EQ(snap2.substr(0, snap1.size()), snap1)
      << "compaction must preserve the folded prefix byte-for-byte";
  EXPECT_EQ(replay_ids(store, "s"), (std::vector<int>{1, 2, 3, 4}));
}

TEST(CacheStore, MaybeCompactHonorsThreshold) {
  pc::Store store(temp_store_dir("cs_threshold"));
  ASSERT_TRUE(store.open());
  store.set_compact_threshold(1);  // anything non-trivial compacts
  ASSERT_TRUE(store.append("s", kVersion, record(1)));
  ASSERT_TRUE(store.maybe_compact("s", kVersion));
  EXPECT_EQ(store.stats("s").generation, 1u);
  EXPECT_EQ(store.stats("s").compactions, 1u);
  EXPECT_GT(store.stats("s").journal_bytes_before_compact, 0u);
  EXPECT_EQ(store.stats("s").journal_bytes_after_compact, 0u);

  // Below the threshold nothing happens.
  store.set_compact_threshold(1 << 20);
  ASSERT_TRUE(store.append("s", kVersion, record(2)));
  ASSERT_TRUE(store.maybe_compact("s", kVersion));
  EXPECT_EQ(store.stats("s").generation, 1u);
}

TEST(CacheStore, VersionMismatchYieldsNothingAndAppendResets) {
  pc::Store store(temp_store_dir("cs_version"));
  ASSERT_TRUE(store.open());
  ASSERT_TRUE(store.append("s", kVersion, record(1)));

  // A replay under a different pipeline version is a cold start...
  pc::Store reader(store.dir());
  EXPECT_FALSE(reader.replay("s", kVersion + 1, [](const Json&) {
    FAIL() << "stale stream must yield nothing";
  }));

  // ...and an append under a different version resets the stream — the
  // journal analogue of save() overwriting a stale cache file.
  ASSERT_TRUE(store.append("s", kVersion + 1, record(7)));
  EXPECT_EQ(replay_ids(store, "s", kVersion + 1), (std::vector<int>{7}));
  EXPECT_FALSE(store.replay("s", kVersion, [](const Json&) {}));
}

TEST(CacheStore, ConcurrentThreadAppendersInterleaveWholeRecords) {
  const std::string dir = temp_store_dir("cs_threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  {
    pc::Store seed(dir);
    ASSERT_TRUE(seed.open());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, t] {
      // One Store per thread: the flock serializes across open-file
      // descriptions, i.e. across threads holding their own fds just
      // like across processes.
      pc::Store store(dir);
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            store.append("s", kVersion, record(t * kPerThread + i)));
      }
    });
  }
  for (auto& t : threads) t.join();

  pc::Store reader(dir);
  const std::vector<int> ids = replay_ids(reader, "s");
  EXPECT_EQ(ids.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Every record survives intact (no torn interleavings), exactly once.
  EXPECT_EQ(std::set<int>(ids.begin(), ids.end()).size(), ids.size());
  EXPECT_EQ(reader.stats("s").torn_records_dropped, 0u);
  EXPECT_EQ(reader.stats("s").crc_records_dropped, 0u);
}

TEST(CacheStore, ConcurrentProcessAppendersShareOneStore) {
  const std::string dir = temp_store_dir("cs_procs");
  constexpr int kProcs = 4;
  constexpr int kPerProc = 40;
  {
    pc::Store seed(dir);
    ASSERT_TRUE(seed.open());
  }
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: append this process's records (with periodic compactions
      // racing the other writers) and exit without running gtest's
      // teardown.
      pc::Store store(dir);
      store.set_compact_threshold(1024);
      bool ok = true;
      for (int i = 0; i < kPerProc; ++i) {
        ok = ok && store.append("s", kVersion, record(p * kPerProc + i));
        if (i % 16 == 15) ok = ok && store.maybe_compact("s", kVersion);
      }
      _exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  pc::Store reader(dir);
  const std::vector<int> ids = replay_ids(reader, "s");
  // Compaction under the stream lock can never lose a concurrent
  // appender's records; a crash window can at worst duplicate one, and
  // none of these writers crashed.
  EXPECT_EQ(std::set<int>(ids.begin(), ids.end()).size(),
            static_cast<std::size_t>(kProcs * kPerProc));
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kProcs * kPerProc));
  EXPECT_EQ(reader.stats("s").torn_records_dropped, 0u);
}

TEST(CacheStore, VersionedFileHelpersRoundTripAndReject) {
  const std::string path =
      std::string(::testing::TempDir()) + "cs_versioned.json";
  Json entries = Json::array();
  entries.push_back(record(1));
  ASSERT_TRUE(pc::write_versioned_file(path, "test-format-v1", kVersion,
                                       {{"entries", std::move(entries)}}));
  const auto ok = pc::read_versioned_file(path, "test-format-v1", kVersion);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ((*ok)["entries"].items().size(), 1u);
  EXPECT_FALSE(
      pc::read_versioned_file(path, "test-format-v2", kVersion));
  EXPECT_FALSE(
      pc::read_versioned_file(path, "test-format-v1", kVersion + 1));
  std::remove(path.c_str());
}

// --- CRC-32 ------------------------------------------------------------------

namespace {

/// The bytewise table-driven CRC-32 the frame checksum has always been:
/// the oracle the word-at-a-time crc32 must match bit for bit.
std::uint32_t bytewise_crc32(std::string_view bytes) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string seeded_bytes(std::size_t n, std::uint64_t seed) {
  ps::Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next_u64() & 0xffu);
  return out;
}

}  // namespace

TEST(Crc32, KnownValues) {
  EXPECT_EQ(pc::crc32(""), 0u);
  EXPECT_EQ(pc::crc32("123456789"), 0xcbf43926u);
}

TEST(Crc32, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  // Lengths 0-300 from start offsets 0-7 cover every split of a buffer
  // into unaligned head, whole 8-byte words, and bytewise tail.
  const std::string buf = seeded_bytes(8 + 300, 0xc3c3);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view bytes(buf.data() + offset, len);
      ASSERT_EQ(pc::crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBytewiseOracleOnOneMebibyte) {
  const std::string buf = seeded_bytes(std::size_t{1} << 20, 0x5eed);
  EXPECT_EQ(pc::crc32(buf), bytewise_crc32(buf));
}

// --- read_file ---------------------------------------------------------------

TEST(ReadFile, ReturnsWholeFilesAndNulloptWhenMissing) {
  const std::string dir = temp_store_dir("rf_files");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(ps::read_file(dir + "/missing"), std::nullopt);
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 (std::size_t{1} << 20) + 3}) {
    const std::string path = dir + "/f" + std::to_string(size);
    const std::string bytes = seeded_bytes(size, size);
    {
      std::ofstream out(path, std::ios::binary);
      out << bytes;
    }
    EXPECT_EQ(ps::read_file(path), bytes) << "size " << size;
  }
}

TEST(ReadFile, ReadsANonRegularFileToEof) {
  // A FIFO reports no size, so the buffer grows while it is read.
  const std::string path = temp_store_dir("rf_fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string bytes = seeded_bytes(100000, 7);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  });
  const auto got = ps::read_file(path);
  writer.join();
  EXPECT_EQ(got, bytes);
  std::filesystem::remove(path);
}
