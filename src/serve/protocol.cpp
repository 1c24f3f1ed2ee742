#include "serve/protocol.hpp"

#include "eval/spec.hpp"
#include "support/cachestore.hpp"
#include "support/strings.hpp"

namespace pareval::serve {

using support::Json;

std::string frame_message(const Json& msg) {
  return cache::frame_record(msg.dump());
}

// --- FrameDecoder -----------------------------------------------------------

namespace {

constexpr std::string_view kFrameMagic = "PVJ1 ";
// "PVJ1 " + 8-hex length + ' ' + 8-hex crc + '\n'
constexpr std::size_t kHeaderSize = kFrameMagic.size() + 8 + 1 + 8 + 1;

bool hex_u32(std::string_view hex, std::uint32_t* out) {
  if (hex.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

}  // namespace

std::optional<Json> FrameDecoder::next() {
  if (corrupt_) return std::nullopt;
  // Compact the consumed prefix lazily so a long-lived stream doesn't
  // grow its buffer without bound.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const std::string_view buf = std::string_view(buffer_).substr(pos_);
  if (buf.size() < kHeaderSize) return std::nullopt;  // need more bytes
  auto fail = [&](const std::string& why) -> std::optional<Json> {
    corrupt_ = true;
    reason_ = why;
    return std::nullopt;
  };
  if (buf.substr(0, kFrameMagic.size()) != kFrameMagic) {
    return fail("bad frame magic");
  }
  std::uint32_t length = 0;
  std::uint32_t crc = 0;
  if (!hex_u32(buf.substr(kFrameMagic.size(), 8), &length) ||
      buf[kFrameMagic.size() + 8] != ' ' ||
      !hex_u32(buf.substr(kFrameMagic.size() + 9, 8), &crc) ||
      buf[kHeaderSize - 1] != '\n') {
    return fail("malformed frame header");
  }
  if (length > kMaxFramePayload) {
    return fail(support::strfmt("oversized frame (%u bytes)", length));
  }
  if (buf.size() < kHeaderSize + length + 1) return std::nullopt;
  const std::string_view payload = buf.substr(kHeaderSize, length);
  if (buf[kHeaderSize + length] != '\n') {
    return fail("frame payload not newline-terminated");
  }
  if (cache::crc32(payload) != crc) {
    // A journal reader would skip this record; a socket peer that sent
    // it can no longer be trusted to be frame-aligned at all.
    return fail("frame CRC mismatch");
  }
  std::string parse_error;
  auto msg = Json::parse(payload, &parse_error);
  if (!msg.has_value()) {
    return fail("frame payload is not JSON: " + parse_error);
  }
  pos_ += kHeaderSize + length + 1;
  return msg;
}

// --- message codecs ---------------------------------------------------------

namespace {

Json tagged(const char* type) {
  Json j = Json::object();
  j.set("type", type);
  return j;
}

bool is_type(const Json& j, const char* type) {
  return j.is_object() && j["type"].as_string() == type;
}

}  // namespace

std::string message_type(const Json& msg) {
  return msg.is_object() ? msg["type"].as_string() : std::string();
}

Json HelloMsg::encode() const {
  Json j = tagged("hello");
  j.set("server", server);
  j.set("protocol", protocol);
  j.set("pipeline", support::u64_to_hex(pipeline));
  return j;
}

bool HelloMsg::decode(const Json& j, HelloMsg* out) {
  if (!is_type(j, "hello") || !j["server"].is_string() ||
      !j["protocol"].is_number()) {
    return false;
  }
  out->server = j["server"].as_string();
  out->protocol = j["protocol"].as_int();
  return support::u64_from_hex(j["pipeline"].as_string(), &out->pipeline);
}

Json SubmitRequest::encode() const {
  Json j = tagged("submit");
  j.set("spec", eval::to_json(spec));
  // Redundant with "spec" but load-bearing, exactly like shard files:
  // decode recomputes the hash and refuses a submit whose two copies
  // disagree.
  j.set("spec_hash", support::u64_to_hex(eval::spec_hash(spec)));
  j.set("engine", minic::engine_key(engine));
  j.set("priority", high_priority ? "high" : "normal");
  j.set("keep_logs", keep_logs);
  return j;
}

bool SubmitRequest::decode(const Json& j, SubmitRequest* out) {
  if (!is_type(j, "submit") || !eval::from_json(j["spec"], &out->spec)) {
    return false;
  }
  std::uint64_t stored_hash = 0;
  if (!support::u64_from_hex(j["spec_hash"].as_string(), &stored_hash) ||
      stored_hash != eval::spec_hash(out->spec)) {
    return false;  // spec and its recorded hash disagree: reject the job
  }
  const auto engine = minic::engine_from_key(j["engine"].as_string());
  if (!engine.has_value()) return false;
  out->engine = *engine;
  const std::string& priority = j["priority"].as_string();
  if (priority != "high" && priority != "normal") return false;
  out->high_priority = priority == "high";
  if (!j["keep_logs"].is_bool()) return false;
  out->keep_logs = j["keep_logs"].as_bool();
  return true;
}

Json SubmitAck::encode() const {
  Json j = tagged("accepted");
  j.set("job", job);
  j.set("cells", cells);
  j.set("units", units);
  return j;
}

bool SubmitAck::decode(const Json& j, SubmitAck* out) {
  if (!is_type(j, "accepted") || !j["job"].is_number() ||
      !j["cells"].is_number() || !j["units"].is_number()) {
    return false;
  }
  out->job = static_cast<int>(j["job"].as_int());
  out->cells = j["cells"].as_int();
  out->units = j["units"].as_int();
  return true;
}

Json SampleMsg::encode() const {
  Json j = tagged("sample");
  j.set("job", job);
  j.set("record", eval::to_json(record));
  return j;
}

bool SampleMsg::decode(const Json& j, SampleMsg* out) {
  if (!is_type(j, "sample") || !j["job"].is_number()) return false;
  out->job = static_cast<int>(j["job"].as_int());
  return eval::from_json(j["record"], &out->record);
}

Json JobDoneMsg::encode() const {
  Json j = tagged("done");
  j.set("job", job);
  j.set("records", records);
  j.set("cancelled", cancelled);
  return j;
}

bool JobDoneMsg::decode(const Json& j, JobDoneMsg* out) {
  if (!is_type(j, "done") || !j["job"].is_number() ||
      !j["records"].is_number() || !j["cancelled"].is_bool()) {
    return false;
  }
  out->job = static_cast<int>(j["job"].as_int());
  out->records = j["records"].as_int();
  out->cancelled = j["cancelled"].as_bool();
  return true;
}

Json StatusRequest::encode() const { return tagged("status"); }

bool StatusRequest::decode(const Json& j, StatusRequest*) {
  return is_type(j, "status");
}

Json StatusReply::encode() const {
  Json j = tagged("status_reply");
  j.set("body", body);
  return j;
}

bool StatusReply::decode(const Json& j, StatusReply* out) {
  if (!is_type(j, "status_reply") || !j["body"].is_object()) return false;
  out->body = j["body"];
  return true;
}

Json CancelRequest::encode() const {
  Json j = tagged("cancel");
  j.set("job", job);
  return j;
}

bool CancelRequest::decode(const Json& j, CancelRequest* out) {
  if (!is_type(j, "cancel") || !j["job"].is_number()) return false;
  out->job = static_cast<int>(j["job"].as_int());
  return true;
}

Json CancelReply::encode() const {
  Json j = tagged("cancel_reply");
  j.set("job", job);
  j.set("found", found);
  j.set("skipped_units", skipped_units);
  return j;
}

bool CancelReply::decode(const Json& j, CancelReply* out) {
  if (!is_type(j, "cancel_reply") || !j["job"].is_number() ||
      !j["found"].is_bool() || !j["skipped_units"].is_number()) {
    return false;
  }
  out->job = static_cast<int>(j["job"].as_int());
  out->found = j["found"].as_bool();
  out->skipped_units = j["skipped_units"].as_int();
  return true;
}

Json FoldRequest::encode() const {
  Json j = tagged("fold");
  j.set("dir", dir);
  return j;
}

bool FoldRequest::decode(const Json& j, FoldRequest* out) {
  if (!is_type(j, "fold") || !j["dir"].is_string() ||
      j["dir"].as_string().empty()) {
    return false;
  }
  out->dir = j["dir"].as_string();
  return true;
}

Json FoldReply::encode() const {
  Json j = tagged("fold_reply");
  j.set("ok", ok);
  j.set("records", records);
  j.set("error", error);
  return j;
}

bool FoldReply::decode(const Json& j, FoldReply* out) {
  if (!is_type(j, "fold_reply") || !j["ok"].is_bool() ||
      !j["records"].is_number()) {
    return false;
  }
  out->ok = j["ok"].as_bool();
  out->records = j["records"].as_int();
  out->error = j["error"].as_string();
  return true;
}

Json ShutdownRequest::encode() const { return tagged("shutdown"); }

bool ShutdownRequest::decode(const Json& j, ShutdownRequest*) {
  return is_type(j, "shutdown");
}

Json ShutdownReply::encode() const {
  Json j = tagged("shutdown_reply");
  j.set("draining", draining);
  return j;
}

bool ShutdownReply::decode(const Json& j, ShutdownReply* out) {
  if (!is_type(j, "shutdown_reply") || !j["draining"].is_bool()) {
    return false;
  }
  out->draining = j["draining"].as_bool();
  return true;
}

Json ErrorMsg::encode() const {
  Json j = tagged("error");
  j.set("message", message);
  return j;
}

bool ErrorMsg::decode(const Json& j, ErrorMsg* out) {
  if (!is_type(j, "error") || !j["message"].is_string()) return false;
  out->message = j["message"].as_string();
  return true;
}

}  // namespace pareval::serve
