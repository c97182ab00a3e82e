// Corpus types: tokenized sentences with labeled entity mentions.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "text/bio.h"

namespace fewner::data {

/// One tokenized sentence with its entity mentions (labels are type names).
struct Sentence {
  std::vector<std::string> tokens;
  std::vector<text::Span> entities;
  std::string domain;  ///< source domain (used by ACE-2005 style corpora)
};

/// A named collection of sentences with a fixed entity-type inventory.
struct Corpus {
  std::string name;
  std::string genre;
  std::vector<std::string> entity_types;
  std::vector<Sentence> sentences;

  /// Total number of entity mentions.
  int64_t MentionCount() const {
    int64_t n = 0;
    for (const auto& s : sentences) n += static_cast<int64_t>(s.entities.size());
    return n;
  }

  /// Sentences whose domain field matches (all sentences when `domain` empty).
  Corpus FilterDomain(const std::string& domain) const {
    Corpus out;
    out.name = name + (domain.empty() ? "" : ":" + domain);
    out.genre = genre;
    out.entity_types = entity_types;
    for (const auto& s : sentences) {
      if (domain.empty() || s.domain == domain) out.sentences.push_back(s);
    }
    return out;
  }
};

/// Disjoint partition of a type inventory for cross-type adaptation
/// (train/val/test types never overlap; paper §4.2.1).
struct TypeSplit {
  std::vector<std::string> train;
  std::vector<std::string> val;
  std::vector<std::string> test;
};

}  // namespace fewner::data
