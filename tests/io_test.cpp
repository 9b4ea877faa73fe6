// Tests for src/io: FASTA, PHYLIP, Newick parsing and round trips.
#include <gtest/gtest.h>

#include <sstream>

#include "src/bio/alignment.hpp"
#include "src/bio/protein_alignment.hpp"
#include "src/io/fasta.hpp"
#include "src/io/newick.hpp"
#include "src/io/parse_error.hpp"
#include "src/io/phylip.hpp"
#include "src/util/error.hpp"

namespace miniphi::io {
namespace {

// ---------------------------------------------------------------- FASTA ----

TEST(Fasta, ParsesBasicRecords) {
  std::istringstream in(">seq1 description here\nACGT\nACGT\n>seq2\nTTTT\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "seq1");
  EXPECT_EQ(records[0].sequence, "ACGTACGT");
  EXPECT_EQ(records[1].name, "seq2");
  EXPECT_EQ(records[1].sequence, "TTTT");
}

TEST(Fasta, HandlesWindowsLineEndingsAndBlankLines) {
  std::istringstream in(">a\r\nAC\r\n\r\nGT\r\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence, "ACGT");
}

TEST(Fasta, RejectsDataBeforeHeader) {
  std::istringstream in("ACGT\n>a\nACGT\n");
  EXPECT_THROW(read_fasta(in), Error);
}

TEST(Fasta, RejectsDuplicateNames) {
  std::istringstream in(">a\nAC\n>a\nGT\n");
  EXPECT_THROW(read_fasta(in), Error);
}

TEST(Fasta, RejectsEmptyRecord) {
  std::istringstream in(">a\nACGT\n>b\n");
  EXPECT_THROW(read_fasta(in), Error);
}

// Malformed corpus: every structural failure must surface as a ParseError
// whose line/column point at the offending character (not a generic Error
// naming no position).
TEST(FastaMalformed, NamesLineAndColumnOfNonIupacCharacter) {
  std::istringstream in(">a\nACGT\nAC1T\n");
  try {
    read_fasta(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 3u);
    EXPECT_NE(std::string(e.what()).find("non-IUPAC"), std::string::npos);
  }
}

TEST(FastaMalformed, AcceptsFullIupacAlphabetAndGaps) {
  std::istringstream in(">a\nACGTURYSWKMBDHVNXO-?.acgtu\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].sequence.size(), 26u);
}

TEST(Fasta, ProteinRecordsRoundTripIntoAProteinAlignment) {
  // Every amino-acid letter, including the ones outside the nucleotide
  // alphabet (E F I L P Q Z), plus gaps and unknowns.
  std::istringstream in(
      ">p1\nACDEFGHIKLMNPQRSTVWY\n>p2\nARNDCQEGHILKMFPSTWYV\n>p3\nBZXLIPQFE-?ACDEFGHIK\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 3u);
  const bio::ProteinAlignment alignment(records);
  ASSERT_EQ(alignment.taxon_count(), 3u);
  ASSERT_EQ(alignment.site_count(), 20u);
  const auto back = alignment.to_records();
  std::ostringstream written;
  write_fasta(written, back);
  std::istringstream reread(written.str());
  const auto again = read_fasta(reread);
  ASSERT_EQ(again.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(again[t].name, records[t].name);
    EXPECT_EQ(again[t].sequence, back[t].sequence);
  }
  EXPECT_EQ(again[0].sequence, "ACDEFGHIKLMNPQRSTVWY");
}

TEST(Fasta, AminoAcidLetterInDnaFailsInTheBioLayer) {
  // The reader accepts 'E' (an IUPAC amino-acid letter); the DNA encoder
  // rejects it, naming the character, its position and the taxon.
  std::istringstream in(">a\nACGT\n>b\nACET\n>c\nACGA\n");
  const auto records = read_fasta(in);
  ASSERT_EQ(records.size(), 3u);
  try {
    const bio::Alignment alignment(records);
    FAIL() << "expected the DNA encoder to reject 'E'";
  } catch (const ParseError&) {
    FAIL() << "the FASTA reader must not be the layer that rejects 'E'";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid DNA character 'E'"), std::string::npos) << what;
    EXPECT_NE(what.find("position 3"), std::string::npos) << what;
    EXPECT_NE(what.find("taxon 'b'"), std::string::npos) << what;
  }
}

TEST(FastaMalformed, TruncatedRecordNamesItsHeaderLine) {
  std::istringstream in(">a\nACGT\n>empty\n>b\nTTTT\n");
  try {
    read_fasta(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("truncated record"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }
}

TEST(FastaMalformed, TruncatedFinalRecordIsAlsoAParseError) {
  std::istringstream in(">a\nACGT\n>b\n");
  EXPECT_THROW(read_fasta(in), ParseError);
}

TEST(FastaMalformed, DataBeforeHeaderCarriesLineOne) {
  std::istringstream in("ACGT\n>a\nACGT\n");
  try {
    read_fasta(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
  }
}

TEST(FastaMalformed, DuplicateNameNamesTheSecondHeader) {
  std::istringstream in(">a\nAC\n>a\nGT\n");
  try {
    read_fasta(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Fasta, RoundTripsWithWrapping) {
  SequenceSet records = {{"x", std::string(200, 'A')}, {"y", std::string(200, 'C')}};
  std::ostringstream out;
  write_fasta(out, records, 60);
  std::istringstream in(out.str());
  const auto parsed = read_fasta(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].sequence, records[0].sequence);
  EXPECT_EQ(parsed[1].sequence, records[1].sequence);
}

// --------------------------------------------------------------- PHYLIP ----

TEST(Phylip, ParsesRelaxedFormat) {
  std::istringstream in("3 8\ntaxA ACGTACGT\ntaxB ACG TACGT\ntaxC\nACGTACGT\n");
  const auto records = read_phylip(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].name, "taxB");
  EXPECT_EQ(records[1].sequence, "ACGTACGT");
  EXPECT_EQ(records[2].sequence, "ACGTACGT");
}

TEST(Phylip, RejectsTruncatedSequence) {
  std::istringstream in("2 10\na ACGT\nb ACGTACGTAC\n");
  EXPECT_THROW(read_phylip(in), Error);
}

TEST(Phylip, RejectsBadHeader) {
  std::istringstream in("zero sites\n");
  EXPECT_THROW(read_phylip(in), Error);
}

TEST(Phylip, RoundTrip) {
  SequenceSet records = {{"alpha", "ACGTTGCA"}, {"beta", "TTTTAAAA"}, {"gamma", "CCGGCCGG"}};
  std::ostringstream out;
  write_phylip(out, records);
  std::istringstream in(out.str());
  const auto parsed = read_phylip(in);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed[i].name, records[i].name);
    EXPECT_EQ(parsed[i].sequence, records[i].sequence);
  }
}

TEST(Phylip, WriteRejectsUnequalLengths) {
  SequenceSet records = {{"a", "ACGT"}, {"b", "AC"}};
  std::ostringstream out;
  EXPECT_THROW(write_phylip(out, records), Error);
}

TEST(PhylipInterleaved, ParsesMultipleBlocks) {
  std::istringstream in(
      "3 12\n"
      "taxA ACGT ACGT\n"
      "taxB TTTT GGGG\n"
      "taxC CCCC AAAA\n"
      "\n"
      "GGAA\n"
      "CCTT\n"
      "TTGG\n");
  const auto records = read_phylip_interleaved(in);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "taxA");
  EXPECT_EQ(records[0].sequence, "ACGTACGTGGAA");
  EXPECT_EQ(records[1].sequence, "TTTTGGGGCCTT");
  EXPECT_EQ(records[2].sequence, "CCCCAAAATTGG");
}

TEST(PhylipInterleaved, SingleBlockEqualsSequential) {
  const std::string text = "2 4\na ACGT\nb TTAA\n";
  std::istringstream in1(text);
  std::istringstream in2(text);
  const auto sequential = read_phylip(in1);
  const auto interleaved = read_phylip_interleaved(in2);
  ASSERT_EQ(sequential.size(), interleaved.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i].sequence, interleaved[i].sequence);
    EXPECT_EQ(sequential[i].name, interleaved[i].name);
  }
}

TEST(PhylipInterleaved, RejectsTruncatedAndRaggedBlocks) {
  std::istringstream truncated("2 8\na ACGT\nb TTAA\n");
  EXPECT_THROW(read_phylip_interleaved(truncated), Error);
  std::istringstream ragged(
      "2 8\n"
      "a ACGT\n"
      "b TTAA\n"
      "GG\n"
      "CCCC\n");
  EXPECT_THROW(read_phylip_interleaved(ragged), Error);
}

// --------------------------------------------------------------- Newick ----

TEST(Newick, ParsesLeafCountsAndLengths) {
  const auto tree = parse_newick("((a:0.1,b:0.2):0.05,c:0.3,d:0.4);");
  EXPECT_EQ(tree->leaf_count(), 4u);
  EXPECT_EQ(tree->size(), 6u);
  ASSERT_EQ(tree->children.size(), 3u);
  EXPECT_EQ(tree->children[0]->children[0]->name, "a");
  EXPECT_DOUBLE_EQ(*tree->children[0]->children[0]->length, 0.1);
  EXPECT_FALSE(tree->length.has_value());
}

TEST(Newick, ParsesQuotedLabelsAndComments) {
  const auto tree = parse_newick("('weird name':1,[comment]b:2,'it''s':3);");
  EXPECT_EQ(tree->children[0]->name, "weird name");
  EXPECT_EQ(tree->children[2]->name, "it's");
}

TEST(Newick, ParsesInnerLabelsAndScientificNotation) {
  const auto tree = parse_newick("((a:1e-3,b:2E2)label:0.5,c:1);");
  EXPECT_EQ(tree->children[0]->name, "label");
  EXPECT_DOUBLE_EQ(*tree->children[0]->children[0]->length, 1e-3);
  EXPECT_DOUBLE_EQ(*tree->children[0]->children[1]->length, 200.0);
}

TEST(Newick, RejectsMalformedInput) {
  EXPECT_THROW(parse_newick("(a,b"), Error);       // missing ) and ;
  EXPECT_THROW(parse_newick("(a,b);x"), Error);    // trailing junk
  EXPECT_THROW(parse_newick("();"), Error);        // empty group
  EXPECT_THROW(parse_newick("(a,:0.5);"), Error);  // unnamed leaf
  EXPECT_THROW(parse_newick("(a,b[);"), Error);    // unterminated comment
  EXPECT_THROW(parse_newick("(a,'b);"), Error);    // unterminated quote
}

TEST(NewickMalformed, UnbalancedParensPointAtTheOpeningParen) {
  // The '(' at line 2, column 3 is never closed.
  try {
    parse_newick("(a:1,\n  (b:1,c:1;\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 3u);
    EXPECT_NE(std::string(e.what()).find("unbalanced parentheses"), std::string::npos);
  }
}

TEST(NewickMalformed, TruncatedTreeReportsMissingSemicolon) {
  try {
    parse_newick("(a:1,b:2)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated tree"), std::string::npos);
  }
}

TEST(NewickMalformed, OverlongLabelIsRejected) {
  const std::string big(600, 'x');
  EXPECT_THROW(parse_newick("(" + big + ":1,b:1);"), ParseError);
  // At the limit it still parses.
  const std::string ok(512, 'x');
  EXPECT_EQ(parse_newick("(" + ok + ":1,b:1);")->leaf_count(), 2u);
}

TEST(NewickMalformed, LineAndColumnTrackNewlines) {
  // Error (unnamed leaf) on line 3 of a multi-line tree.
  try {
    parse_newick("(a:1,\nb:2,\n:3);");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Newick, SerializationRoundTrip) {
  const std::string text = "((a:0.1,b:0.2):0.05,(c:0.3,d:0.4):0.01,e:1);";
  const auto tree = parse_newick(text);
  const auto again = parse_newick(to_newick(*tree));
  EXPECT_EQ(to_newick(*tree), to_newick(*again));
  EXPECT_EQ(again->leaf_count(), 5u);
}

TEST(Newick, DeepNestingParses) {
  std::string text = "a";
  for (int i = 0; i < 200; ++i) text = "(" + text + ":1,x" + std::to_string(i) + ":1)";
  text += ";";
  const auto tree = parse_newick(text);
  EXPECT_EQ(tree->leaf_count(), 201u);
}

}  // namespace
}  // namespace miniphi::io
