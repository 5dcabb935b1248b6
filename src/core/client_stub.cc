#include "core/client_stub.h"

#include <algorithm>

#include "pubsub/codec.h"

namespace tmps {

namespace {

std::size_t wire_size(const Publication& pub) {
  Writer w;
  encode(w, pub);
  return w.bytes().size();
}

}  // namespace

const char* to_string(ClientState s) {
  switch (s) {
    case ClientState::Init: return "init";
    case ClientState::Created: return "created";
    case ClientState::Started: return "started";
    case ClientState::PauseOper: return "pause_oper";
    case ClientState::PauseMove: return "pause_move";
    case ClientState::PrepareStop: return "prepare_stop";
    case ClientState::Clean: return "clean";
  }
  return "?";
}

IllegalTransition::IllegalTransition(ClientState from, const char* op)
    : std::logic_error(std::string("illegal client transition: ") + op +
                       " from state " + to_string(from)) {}

ClientStub::ClientStub(ClientId id) : id_(id) {}

void ClientStub::remember_subscription(const Subscription& sub) {
  forget_subscription(sub.id);
  subs_.push_back(sub);
}

void ClientStub::remember_advertisement(const Advertisement& adv) {
  forget_advertisement(adv.id);
  advs_.push_back(adv);
}

bool ClientStub::forget_subscription(const SubscriptionId& id) {
  auto it = std::find_if(subs_.begin(), subs_.end(),
                         [&](const Subscription& s) { return s.id == id; });
  if (it == subs_.end()) return false;
  subs_.erase(it);
  return true;
}

bool ClientStub::forget_advertisement(const AdvertisementId& id) {
  auto it = std::find_if(advs_.begin(), advs_.end(),
                         [&](const Advertisement& a) { return a.id == id; });
  if (it == advs_.end()) return false;
  advs_.erase(it);
  return true;
}

void ClientStub::create() {
  if (state_ != ClientState::Init) throw IllegalTransition(state_, "create");
  state_ = ClientState::Created;
}

void ClientStub::start() {
  if (state_ != ClientState::Created) throw IllegalTransition(state_, "start");
  state_ = ClientState::Started;
  flush_buffer();
}

void ClientStub::pause() {
  if (state_ != ClientState::Started) throw IllegalTransition(state_, "pause");
  state_ = ClientState::PauseOper;
}

void ClientStub::resume() {
  if (state_ != ClientState::PauseOper) {
    throw IllegalTransition(state_, "resume");
  }
  state_ = ClientState::Started;
  flush_buffer();
}

void ClientStub::begin_move() {
  if (state_ != ClientState::Started && state_ != ClientState::PauseOper) {
    throw IllegalTransition(state_, "begin_move");
  }
  state_ = ClientState::PauseMove;
}

void ClientStub::resume_from_reject() {
  if (state_ != ClientState::PauseMove) {
    throw IllegalTransition(state_, "resume_from_reject");
  }
  state_ = ClientState::Started;
  flush_buffer();
}

void ClientStub::resume_from_abort() {
  if (state_ != ClientState::PauseMove && state_ != ClientState::PrepareStop) {
    throw IllegalTransition(state_, "resume_from_abort");
  }
  state_ = ClientState::Started;
  flush_buffer();
}

void ClientStub::prepare_stop() {
  if (state_ != ClientState::PauseMove) {
    throw IllegalTransition(state_, "prepare_stop");
  }
  state_ = ClientState::PrepareStop;
}

void ClientStub::clean() {
  if (state_ != ClientState::PrepareStop && state_ != ClientState::Created &&
      state_ != ClientState::PauseMove) {
    throw IllegalTransition(state_, "clean");
  }
  state_ = ClientState::Clean;
  buffer_.clear();
  buffered_bytes_ = 0;
}

void ClientStub::on_notification(const Publication& pub) {
  if (state_ == ClientState::Clean || state_ == ClientState::Init) return;
  if (!seen_.insert(pub.id()).second) return;  // duplicate suppressed
  if (state_ == ClientState::Started) {
    deliver(pub);
  } else {
    buffer_push(pub);
  }
}

std::vector<Publication> ClientStub::take_buffer() {
  std::vector<Publication> out;
  out.reserve(buffer_.size());
  for (auto& b : buffer_) out.push_back(std::move(b.pub));
  buffer_.clear();
  buffered_bytes_ = 0;
  return out;
}

void ClientStub::merge_notifications(const std::vector<Publication>& shipped) {
  // Shipped notifications precede locally buffered ones: they were matched
  // at the source strictly before the hand-off point.
  std::deque<Buffered> local;
  local.swap(buffer_);
  buffered_bytes_ = 0;
  for (const auto& pub : shipped) {
    if (seen_.count(pub.id()) == 0) buffer_push(pub);
    seen_.insert(pub.id());
  }
  for (auto& b : local) buffer_push(std::move(b.pub));
  if (state_ == ClientState::Started) flush_buffer();
}

void ClientStub::buffer_push(Publication pub) {
  Buffered b;
  b.bytes = limits_.max_bytes ? wire_size(pub) : 0;
  b.pub = std::move(pub);
  buffered_bytes_ += b.bytes;
  buffer_.push_back(std::move(b));
  enforce_limits();
}

void ClientStub::enforce_limits() {
  while (limits_.max_count && buffer_.size() > limits_.max_count) {
    drop_front();
  }
  while (limits_.max_bytes && buffered_bytes_ > limits_.max_bytes &&
         !buffer_.empty()) {
    drop_front();
  }
}

void ClientStub::drop_front() {
  Buffered b = std::move(buffer_.front());
  buffer_.pop_front();
  buffered_bytes_ -= b.bytes;
  if (drop_) drop_(b.pub);
}

std::vector<Publication> ClientStub::take_commands() {
  std::vector<Publication> out(pending_pubs_.begin(), pending_pubs_.end());
  pending_pubs_.clear();
  return out;
}

void ClientStub::deliver(const Publication& pub) {
  if (deliver_) deliver_(pub);
}

void ClientStub::flush_buffer() {
  while (!buffer_.empty()) {
    Publication pub = std::move(buffer_.front().pub);
    buffered_bytes_ -= buffer_.front().bytes;
    buffer_.pop_front();
    deliver(pub);
  }
}

}  // namespace tmps
