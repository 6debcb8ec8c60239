#pragma once
// Style/hygiene rules (migrated v1 regex rules): raw-sleep, raw-rand,
// raw-cout, raw-thread, bare-units, raw-token-bucket; plus path fences.

#include "lint/rule.hpp"

namespace iofa::lint {

class RawSleepRule : public Rule {
 public:
  std::string_view name() const override { return "raw-sleep"; }
  std::string_view description() const override {
    return "sleeps and wall-clock reads must go through common/clock";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawRandRule : public Rule {
 public:
  std::string_view name() const override { return "raw-rand"; }
  std::string_view description() const override {
    return "randomness must come from the seeded iofa::Rng";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawCoutRule : public Rule {
 public:
  std::string_view name() const override { return "raw-cout"; }
  std::string_view description() const override {
    return "library code logs through iofa::log_*, not std::cout/cerr";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawThreadRule : public Rule {
 public:
  std::string_view name() const override { return "raw-thread"; }
  std::string_view description() const override {
    return "thread spawning is confined to the approved owners";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class BareUnitsRule : public Rule {
 public:
  std::string_view name() const override { return "bare-units"; }
  std::string_view description() const override {
    return "public headers use Bytes/Seconds typedefs, not bare double";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawTokenBucketRule : public Rule {
 public:
  std::string_view name() const override { return "raw-token-bucket"; }
  std::string_view description() const override {
    return "fwd/qos rate limiting goes through the hierarchical bucket";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawPayloadRule : public Rule {
 public:
  std::string_view name() const override { return "raw-payload"; }
  std::string_view description() const override {
    return "fwd payload buffers ride the slab pool, not vector<byte>";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class RawWireRule : public Rule {
 public:
  std::string_view name() const override { return "raw-wire"; }
  std::string_view description() const override {
    return "rpc frame bytes are interpreted only inside the codec";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

class TypedCompletionRule : public Rule {
 public:
  std::string_view name() const override { return "typed-completion"; }
  std::string_view description() const override {
    return "fwd/rpc requests complete through typed continuations, not "
           "promises/futures";
  }
  void scan(const FileModel& file, Reporter& rep) override;
};

}  // namespace iofa::lint
