// Crash-safe file writing.
//
// atomic_write_file replaces a whole file via write-temp + fsync +
// rename(2). Readers either see the old contents or the complete new
// contents; a crash at any instant never leaves a torn file at the final
// path. Used for replay dumps and other "publish a result" writes.
// Failures surface as ppg::Error (kIoError) with the path attached.
#pragma once

#include <string>
#include <string_view>

namespace ppg {

/// Atomically replaces `path` with `contents`: writes `path` + ".tmp",
/// fsyncs it, then rename(2)s over the destination. Throws PpgException
/// (kIoError) on any failure; the destination is never left torn.
void atomic_write_file(const std::string& path, std::string_view contents);

}  // namespace ppg
