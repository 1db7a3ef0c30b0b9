// Writes apps::BuildTable6Corpus(0x5eed) to the file named by its argument,
// for page_rewrite_diff_test. That test checks each program in its own
// process, and generating the 23 MB corpus costs a process more than
// checking most programs does, so the build generates it once.
//
// Format, per program in corpus order: u32 name length, the name, u64 code
// length, the code bytes (host byte order).

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "src/apps/corpus.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out-file>\n", argv[0]);
    return 2;
  }
  std::ofstream out(argv[1], std::ios::binary | std::ios::trunc);
  for (const apps::CorpusProgram& program : apps::BuildTable6Corpus(0x5eed)) {
    const uint32_t name_len = static_cast<uint32_t>(program.name.size());
    const uint64_t code_len = program.code.size();
    out.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    out.write(program.name.data(), name_len);
    out.write(reinterpret_cast<const char*>(&code_len), sizeof(code_len));
    out.write(reinterpret_cast<const char*>(program.code.data()),
              static_cast<std::streamsize>(code_len));
  }
  return out ? 0 : 1;
}
