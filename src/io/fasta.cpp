#include "src/io/fasta.hpp"

#include <array>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <unordered_set>

#include "src/io/parse_error.hpp"
#include "src/util/error.hpp"

namespace miniphi::io {
namespace {

std::string first_token(const std::string& line, std::size_t start) {
  std::size_t begin = start;
  while (begin < line.size() && std::isspace(static_cast<unsigned char>(line[begin]))) ++begin;
  std::size_t end = begin;
  while (end < line.size() && !std::isspace(static_cast<unsigned char>(line[end]))) ++end;
  return line.substr(begin, end - begin);
}

void strip_trailing_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

/// Accepted sequence characters: the union of the IUPAC nucleotide and
/// amino-acid alphabets (together every letter) plus the gap/unknown/stop
/// symbols.  Whether a letter belongs to the alignment's alphabet is the
/// bio layer's call (bio::encode_sequence / encode_aa_sequence), as with
/// PHYLIP: io cannot know which alphabet the caller will decode with.
constexpr std::array<bool, 256> build_iupac_table() {
  std::array<bool, 256> table{};
  for (char c = 'a'; c <= 'z'; ++c) table[static_cast<unsigned char>(c)] = true;
  for (char c = 'A'; c <= 'Z'; ++c) table[static_cast<unsigned char>(c)] = true;
  for (const char* c = "-?.*"; *c != '\0'; ++c) table[static_cast<unsigned char>(*c)] = true;
  return table;
}

constexpr std::array<bool, 256> kIupacTable = build_iupac_table();

}  // namespace

SequenceSet read_fasta(std::istream& in) {
  SequenceSet records;
  std::unordered_set<std::string> seen;
  std::string line;
  bool have_record = false;
  std::size_t line_no = 0;
  std::size_t record_line = 0;  ///< line of the current record's '>' header

  while (std::getline(in, line)) {
    ++line_no;
    strip_trailing_cr(line);
    if (line.empty()) continue;
    if (line[0] == '>') {
      if (have_record && records.back().sequence.empty()) {
        throw ParseError("FASTA", record_line, 1,
                         "truncated record: '" + records.back().name + "' has no sequence data");
      }
      const std::string name = first_token(line, 1);
      if (name.empty()) throw ParseError("FASTA", line_no, 1, "empty sequence name");
      if (!seen.insert(name).second) {
        throw ParseError("FASTA", line_no, 1, "duplicate sequence name '" + name + "'");
      }
      records.push_back({name, {}});
      have_record = true;
      record_line = line_no;
    } else {
      if (!have_record) {
        throw ParseError("FASTA", line_no, 1, "sequence data before the first '>' header");
      }
      for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        if (!kIupacTable[static_cast<unsigned char>(c)]) {
          throw ParseError("FASTA", line_no, i + 1,
                           std::string("non-IUPAC character '") + c + "' in record '" +
                               records.back().name + "'");
        }
        records.back().sequence.push_back(c);
      }
    }
  }
  if (have_record && records.back().sequence.empty()) {
    throw ParseError("FASTA", record_line, 1,
                     "truncated record: '" + records.back().name + "' has no sequence data");
  }
  return records;
}

SequenceSet read_fasta_file(const std::string& path) {
  std::ifstream in(path);
  MINIPHI_CHECK(in.good(), "cannot open FASTA file '" + path + "'");
  return read_fasta(in);
}

void write_fasta(std::ostream& out, const SequenceSet& records, std::size_t line_width) {
  for (const auto& record : records) {
    out << '>' << record.name << '\n';
    if (line_width == 0) {
      out << record.sequence << '\n';
    } else {
      for (std::size_t i = 0; i < record.sequence.size(); i += line_width) {
        out << record.sequence.substr(i, line_width) << '\n';
      }
    }
  }
}

void write_fasta_file(const std::string& path, const SequenceSet& records,
                      std::size_t line_width) {
  std::ofstream out(path);
  MINIPHI_CHECK(out.good(), "cannot open '" + path + "' for writing");
  write_fasta(out, records, line_width);
}

}  // namespace miniphi::io
