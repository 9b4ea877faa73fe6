// FASTA reading and writing.
#pragma once

#include <iosfwd>
#include <string>

#include "src/io/sequence.hpp"

namespace miniphi::io {

/// Parses FASTA from a stream.  Headers start with '>'; the first
/// whitespace-delimited token is the sequence name.  Blank lines are
/// ignored; sequence lines are concatenated.  Throws io::ParseError (a
/// miniphi::Error carrying 1-based line/column) on structural problems:
/// data before the first header, empty or duplicate names, truncated
/// records with no sequence, and non-IUPAC sequence characters (anything
/// but letters and "-?.*"; the nucleotide or amino-acid alphabet itself is
/// checked by the bio layer's encoders).
SequenceSet read_fasta(std::istream& in);

/// Convenience overload reading from a file path.
SequenceSet read_fasta_file(const std::string& path);

/// Writes records wrapped at `line_width` characters (0 = no wrapping).
void write_fasta(std::ostream& out, const SequenceSet& records, std::size_t line_width = 80);

void write_fasta_file(const std::string& path, const SequenceSet& records,
                      std::size_t line_width = 80);

}  // namespace miniphi::io
