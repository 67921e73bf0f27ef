/**
 * @file
 * Run-time configuration dictionary.
 *
 * The paper's simulator takes "most simulation parameters ... at run
 * time, allowing easy exploration of the design space". Config is a
 * simple typed key/value store populated from defaults and from
 * command-line "key=value" arguments.
 */

#ifndef NIFDY_SIM_CONFIG_HH
#define NIFDY_SIM_CONFIG_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nifdy
{

/**
 * Typed key/value configuration with "key=value" CLI parsing.
 *
 * Every read is recorded, so a program can layer defaults with
 * set(), read everything it understands, and then call
 * requireAllRead(): any key nobody read -- a misspelled or unknown
 * knob -- is fatal, with the nearest key the program asked for as a
 * did-you-mean hint.
 */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a value. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, long value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True iff the key is present (not a read). */
    bool has(const std::string &key) const;

    /**
     * Read @p key: nullptr when absent, else its raw value. Marks the
     * key read and records it as asked for (the did-you-mean
     * candidates of requireAllRead()); every getter reads through
     * here.
     */
    const std::string *find(std::string_view key) const;

    /**
     * Typed getters. The one-argument forms are fatal() on a missing
     * key; the two-argument forms return the fallback instead.
     * Malformed values are always fatal().
     */
    std::string getString(const std::string &key) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    long getInt(const std::string &key) const;
    long getInt(const std::string &key, long fallback) const;
    double getDouble(const std::string &key) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key) const;
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Fatal when any present key has not been read: each unread key
     * is named together with the nearest key the program asked for.
     * Call once every key has been read and before simulating.
     */
    void requireAllRead() const;

    /** Every key asked for so far (present or not), sorted. */
    std::vector<std::string> askedKeys() const;

    /**
     * Parse argv-style "key=value" tokens into this config.
     * Returns the tokens that did not look like assignments.
     */
    std::vector<std::string> parseArgs(int argc, char **argv);

    /** All keys, sorted (for dumping). */
    std::vector<std::string> keys() const;

    /** Render as "key=value" lines. */
    std::string toString() const;

  private:
    struct Entry
    {
        std::string value;
        mutable bool read = false;
    };

    std::map<std::string, Entry, std::less<>> values_;
    /** Every key asked for, each followed by '\n': one append per
     * read. Reserved once, for a whole experiment knob table, so
     * recording the asks is one allocation rather than a chain of
     * regrowths that shifts the heap layout of what is built next. */
    mutable std::string asked_;
    static constexpr std::size_t askedReserve = 2048;
};

} // namespace nifdy

#endif // NIFDY_SIM_CONFIG_HH
